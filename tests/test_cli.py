import io
import json

import pytest

from braidforge.certs import CertStore
from braidforge.chains import Chain
from braidforge.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.rstrip("\n"), captured.err


def test_pi_plain(capsys):
    assert run(["pi", "-n", "3", "s1 v2 t1"]) == 0
    out, _ = out_of(capsys)
    assert out == "(1 3)"


def test_pi_json(capsys):
    assert run(["pi", "-n", "3", "--json", "s1 v2 t1"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data == {"schema": 1, "cycles": "(1 3)", "images": [3, 2, 1]}


def test_coset(capsys):
    assert run(["coset", "-n", "3", "s1 v2 t1"]) == 0
    assert out_of(capsys)[0] == "v1 v2 v1"


def test_to_pure(capsys):
    assert run(["to-pure", "-n", "3", "s1 v2 t1"]) == 0
    assert out_of(capsys)[0] == "pure: m[1,2] g[2,3]\ncoset: v1 v2 v1"


def test_rewrite(capsys):
    assert run(["rewrite", "-n", "2", "s1 t1"]) == 0
    assert out_of(capsys)[0] == "m[1,2] g[2,1]"


def test_rewrite_rejects_non_pure_words(capsys):
    assert run(["rewrite", "-n", "3", "s1"]) == 1
    _, err = out_of(capsys)
    assert "braidforge:" in err


def test_derive_relations_plain(capsys):
    assert run(["derive-relations", "-n", "3"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert len(lines) == 24
    assert all(" = " in line for line in lines)


def test_derive_relations_json(capsys):
    assert run(["derive-relations", "-n", "3", "--json"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["schema"] == 1
    assert data["strands"] == 3
    assert len(data["relations"]) == 24
    assert set(data["relations"][0]) == {"lhs", "rhs", "family", "base",
                                         "coset"}


def test_normal_form_plain(capsys):
    assert run(["normal-form", "-n", "3", "s1 s1"]) == 0
    out = out_of(capsys)[0]
    assert out.startswith("w2:")
    assert out.splitlines()[-1].startswith("coset:")


def test_normal_form_json(capsys):
    assert run(["normal-form", "-n", "3", "--json", "s1 t2"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert [layer["level"] for layer in data["layers"]] == [2, 1]
    assert isinstance(data["coset"], str)


def test_normal_form_budget_exhaustion_is_exit_2(capsys):
    code = run(["normal-form", "-n", "3", "--budget", "1",
                "s1 s2 s1 t2 S1 v2 s1 t1 S2"])
    assert code == 2
    _, err = out_of(capsys)
    assert "resource bound" in err


def test_pipe_normal_form_recompose_decide(capsys, monkeypatch):
    assert run(["normal-form", "-n", "3", "s1 v2 t1"]) == 0
    nf_text = out_of(capsys)[0]

    monkeypatch.setattr("sys.stdin", io.StringIO(nf_text))
    assert run(["recompose", "-n", "3", "-"]) == 0
    word = out_of(capsys)[0]

    assert run(["decide", "-n", "3", word, "s1 v2 t1"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["status"] == "Equal"


def test_decide_prints_json_with_witness(capsys):
    assert run(["decide", "-n", "3", "s1 s2 s1", "s2 s1 s2"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["status"] == "Equal"
    assert data["witness"]["steps"]


def test_decide_no_witness_flag(capsys):
    assert run(["decide", "-n", "3", "--no-witness",
                "s1 s2 s1", "s2 s1 s2"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["witness"] is None
    assert data["witness_steps"] > 0


def test_decide_unequal_still_exits_zero(capsys):
    assert run(["decide", "-n", "2", "s1", "t1"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert data["status"] == "Unequal"


def test_decide_json_prints_the_unequal_certificate(capsys):
    for flags in ([], ["--no-witness"]):
        assert run(["decide", "-n", "3", "--json", *flags,
                    "s1 s1 s2 s2", "s2 s2 s1 s1"]) == 0
        data = json.loads(out_of(capsys)[0])
        assert data["status"] == "Unequal"
        assert data["reason"] == "twisted Burau images differ"
        cert = data["certificate"]
        assert cert["p"] == 1_000_003
        assert len(cert["left"]) == len(cert["right"]) == 3
        assert cert["left"] != cert["right"]


def test_stdin_word_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("s1 v2 t1\n"))
    assert run(["pi", "-n", "3", "-"]) == 0
    assert out_of(capsys)[0] == "(1 3)"


def test_usage_errors_exit_3(capsys):
    assert run([]) == 3
    assert run(["no-such-command"]) == 3
    assert run(["pi", "s1"]) == 3  # missing -n


def test_bad_word_exits_1(capsys):
    assert run(["pi", "-n", "3", "x9"]) == 1
    assert run(["pi", "-n", "3", "s7"]) == 1


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", "1")
    code = run(["normal-form", "-n", "3", "s1 s2 s1 t2 S1 v2 s1 t1 S2"])
    assert code == 2


def test_garbage_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", "lots")
    assert run(["normal-form", "-n", "3", "s1"]) == 1
    _, err = out_of(capsys)
    assert "BRAIDFORGE_BUDGET" in err


@pytest.mark.parametrize("raw", ["0", "-5", "abc"])
@pytest.mark.parametrize("command", [
    ["normal-form", "-n", "3", "s1 s1"],
    ["decide", "-n", "3", "s1 s2 s1", "s2 s1 s2"],
])
def test_bad_budget_env_var_is_a_domain_error(capsys, monkeypatch, raw,
                                              command):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", raw)
    assert run(command) == 1
    _, err = out_of(capsys)
    assert "braidforge: BRAIDFORGE_BUDGET" in err


def test_empty_budget_env_var_means_the_default(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", "")
    assert run(["normal-form", "-n", "3", "s1 s1"]) == 0
    assert out_of(capsys)[0].startswith("w2:")


def test_budget_flag_wins_over_the_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", "abc")
    assert run(["normal-form", "-n", "3", "--budget", "1000",
                "s1 s1"]) == 0


@pytest.mark.parametrize("raw", ["", "0", "-5", "abc"])
def test_commands_without_a_budget_ignore_the_env_var(capsys, monkeypatch,
                                                      raw):
    monkeypatch.setenv("BRAIDFORGE_BUDGET", raw)
    assert run(["pi", "-n", "3", "s1 v2 t1"]) == 0
    assert out_of(capsys)[0] == "(1 3)"


def test_certificate_error_is_an_internal_error_exit_4(capsys, monkeypatch):
    lift = CertStore.lift_fusing_chain

    def broken(self, chain):
        lifted = lift(self, chain)
        return Chain(lifted.start, lifted.steps[:-1])

    monkeypatch.setattr(CertStore, "lift_fusing_chain", broken)
    assert run(["decide", "-n", "3", "v1 s2 v1", "v2 s1 v2"]) == 4
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("braidforge: internal error: ")
    assert "does not close" in err
    assert "Traceback" not in err


def test_verify_suite_quick(capsys):
    code = run(["verify-suite", "-n", "3", "--quick", "--json"])
    data = json.loads(out_of(capsys)[0])
    assert code == 0
    assert data["passed"] is True
    assert all(suite["passed"] for suite in data["suites"])
