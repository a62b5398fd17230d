"""Certificate construction: turning algebraic shortcuts into chains.

The oracle's fast paths reason at the fusing level (sweeps, layered
normal forms, derived relations), but an Equal verdict must carry a
crossing-level chain.  This module builds those chains:

* transport certificates: pushing a block of virtual crossings through
  a fusing string's expansion, one v at a time (found once by bounded
  search, then cached);
* certified sweeps: the left-to-right pure-times-coset sweep replayed
  as explicit moves, ending in expansion-of-pure times coset word;
* lifts: replaying a fusing-level chain as a crossing-level chain,
  using the derivation provenance of the pure presentation to certify
  each fusing substitution;
* conjugation identities: the chains behind the layered normal form's
  rule table, which let a normal form computation be replayed as a
  fusing chain and then lifted.

Everything returned here is validated against the relevant move table
before it is cached, so a bad table row or a transcription slip fails
loudly at construction time, not at verification time.
"""

from __future__ import annotations

import functools

from .chains import (Builder, Chain, _rev_inv, chain_concat, chain_end,
                     chain_invert, chain_mirror, validate_chain)
from .decomposition import ConjugatedLetter, conjugate_letter
from .errors import CertificateError
from .fusing import (Family, FusingLetter, FusingWord, _sweep_raw,
                     act_permutation, expand_letter, fusing_alphabet,
                     fusing_free_reduce, invert_fusing)
from .kernel import free_reduce_bytes, reduce_with_events
from .perms import (SchreierWord, permutation_of, schreier_representative,
                    transposition)
from .relations import fusing_moves, standard_moves
from .schreier import canonical_fusing_pair, nontrivial_canonical_pairs
from .search import bfs_chain, tiered_chain
from .words import (BraidWord, GeneratorLetter, Kind, concat_words,
                    decode_letter, encode_letter, invert_word)

__all__ = ["CertStore", "get_store"]


class CertStore:
    """Per-strand-count cache of searched and assembled certificates."""

    def __init__(self, n: int):
        self.n = n
        self.std = standard_moves(n)
        self.fus = fusing_moves(n)
        self.alph = fusing_alphabet(n)
        self._expansion: dict[FusingLetter, bytes] = {}
        self._t3: dict = {}
        self._vword: dict = {}
        self._conj: dict = {}
        self._twist: dict = {}
        self._fstep: dict = {}
        self._derived: dict = {}
        self._provenance = None

    # -- encodings ---------------------------------------------------

    def rho(self, letter: FusingLetter) -> bytes:
        """Byte codes of the letter's crossing expansion."""
        cached = self._expansion.get(letter)
        if cached is None:
            cached = expand_letter(letter, self.n).codes
            self._expansion[letter] = cached
        return cached

    def rho_word(self, letters) -> bytes:
        return b"".join(self.rho(l) for l in letters)

    def enc(self, letters) -> bytes:
        return bytes(self.alph.code_of[l] for l in letters)

    # -- transport ---------------------------------------------------

    def _vcode(self, index: int) -> int:
        return encode_letter(GeneratorLetter(Kind.V, index))

    def transport_letter(self, index: int, g: FusingLetter) -> Chain:
        """Chain v_index * rho(g) => rho(g') * v_index, where g' is g
        relabeled by the transposition (index, index + 1)."""
        key = (index, g)
        chain = self._t3.get(key)
        if chain is not None:
            return chain
        image = act_permutation(transposition(self.n, index, index + 1), g)
        start = bytes([self._vcode(index)]) + self.rho(g)
        goal = self.rho(image) + bytes([self._vcode(index)])
        limit = max(len(start), len(goal)) + 4
        chain = tiered_chain(start, goal, self.std, max_len=limit,
                             max_nodes=400_000, require=True)
        validate_chain(chain, self.std)
        self._t3[key] = chain
        return chain

    def transport_block(self, block: bytes, g: FusingLetter
                        ) -> tuple[Chain, FusingLetter]:
        """Chain block * rho(g) => rho(g') * block for a v-only block."""
        bld = Builder(block + self.rho(g), self.std.inverse_table)
        current = g
        for idx in range(len(block) - 1, -1, -1):
            letter_index = _v_index(block[idx])
            step = self.transport_letter(letter_index, current)
            bld.embed(step, idx)
            current = act_permutation(
                transposition(self.n, letter_index, letter_index + 1),
                current)
        if bld.word != self.rho(current) + block:
            raise CertificateError("block transport drifted")
        return bld.chain(), current

    def v_word_chain(self, start: bytes, goal: bytes) -> Chain:
        """Chain between two all-virtual words with the same permutation."""
        key = (start, goal)
        chain = self._vword.get(key)
        if chain is not None:
            return chain
        limit = max(len(start), len(goal)) + 4
        chain = tiered_chain(start, goal, self.std, max_len=limit,
                             max_nodes=400_000, require=True)
        validate_chain(chain, self.std)
        self._vword[key] = chain
        return chain

    # -- certified sweep ---------------------------------------------

    def certified_sweep(self, word: BraidWord
                        ) -> tuple[Chain, FusingWord, SchreierWord]:
        """Replay the pure-times-coset sweep as a crossing chain.

        Returns (chain, pure, coset) with the chain rewriting `word`
        into rho(pure) * coset word; pure is the unreduced sweep image.
        """
        n = self.n
        bld = Builder(word.codes, self.std.inverse_table)
        p_len = 0
        block = b""
        p_letters: list[FusingLetter] = []
        remaining = len(word.codes)
        while remaining:
            pos = p_len + len(block)
            code = bld.word[pos]
            letter = decode_letter(code)
            if letter.kind is Kind.V:
                block += bytes([code])
                remaining -= 1
                continue
            vcode = self._vcode(letter.index)
            family = Family.MU if letter.kind is Kind.SIGMA else Family.GAMMA
            if letter.exponent > 0:
                bld.splice(pos + 1, b"", bytes((vcode, vcode)))
                local = FusingLetter(family, letter.index, letter.index + 1, 1)
            else:
                bld.splice(pos, b"", bytes((vcode, vcode)))
                block += bytes([vcode])
                local = FusingLetter(family, letter.index, letter.index + 1,
                                     -1)
            transport, image = self.transport_block(block, local)
            bld.embed(transport, p_len)
            p_letters.append(image)
            p_len += len(self.rho(image))
            if letter.exponent > 0:
                block += bytes([vcode])
            remaining -= 1
        coset = schreier_representative(permutation_of(word), self.n)
        rep = coset.braid_word.codes
        if block != rep:
            bld.embed(self.v_word_chain(block, rep), p_len)
        pure = FusingWord(n, tuple(p_letters))
        check, _ = _sweep_raw(word)
        if check.letters != pure.letters:
            raise CertificateError("certified sweep disagrees with sweep")
        if bld.word != self.rho_word(p_letters) + rep:
            raise CertificateError("certified sweep drifted")
        return bld.chain(), pure, coset

    # -- fusing-level lifts ------------------------------------------

    def reduce_lift(self, letters) -> tuple[Chain, tuple]:
        """Chain rho(letters) => rho(freely reduced letters)."""
        codes = self.enc(letters)
        _, events = reduce_with_events(codes, self.alph.inverse_table)
        bld = Builder(self.rho_word(letters), self.std.inverse_table)
        current = list(letters)
        for pos in events:
            offset = sum(len(self.rho(l)) for l in current[:pos])
            length = len(self.rho(current[pos])) + len(self.rho(
                current[pos + 1]))
            bld.reduce_span(offset, length)
            del current[pos:pos + 2]
        return bld.chain(), tuple(current)

    def _provenance_index(self):
        if self._provenance is None:
            self._provenance = nontrivial_canonical_pairs(self.n)
        return self._provenance

    def _derived_pair_cert(self, rel) -> Chain:
        """Chain rho(rel.lhs) => rho(rel.rhs) for one derived relation,
        rebuilt from its provenance: undo the lhs sweep, make the base
        move, redo the rhs sweep."""
        chain = self._derived.get(rel)
        if chain is not None:
            return chain
        c = rel.coset.braid_word
        c_inv = invert_word(c)
        lhs_word = concat_words(c, rel.base_lhs, c_inv)
        rhs_word = concat_words(c, rel.base_rhs, c_inv)
        sweep_l, pure_l, coset_l = self.certified_sweep(lhs_word)
        sweep_r, pure_r, coset_r = self.certified_sweep(rhs_word)
        if coset_l.braid_word.codes != coset_r.braid_word.codes:
            raise CertificateError("derived relation cosets disagree")
        rep = coset_l.braid_word.codes
        lift_l, red_l = self.reduce_lift(pure_l.letters)
        lift_r, red_r = self.reduce_lift(pure_r.letters)
        if red_l != rel.lhs.letters or red_r != rel.rhs.letters:
            raise CertificateError("derived relation sweep drifted")
        # rho(red_l) => rho(pure_l), append rep * rep^-1, undo sweep_l,
        # base substitution, redo sweep_r, drop rep, reduce to rho(red_r).
        inv = self.std.inverse_table
        bld = Builder(self.rho_word(red_l), inv)
        bld.embed(chain_invert(lift_l))
        bld.expand_span(len(self.rho_word(pure_l.letters)),
                        rep + _rev_inv(rep, inv))
        bld.embed(chain_invert(sweep_l))
        bld.splice(len(c.codes), rel.base_lhs.codes, rel.base_rhs.codes)
        bld.embed(sweep_r)
        bld.reduce_span(len(self.rho_word(pure_r.letters)), 2 * len(rep))
        bld.embed(lift_r)
        if bld.word != self.rho_word(red_r):
            raise CertificateError("derived relation cert drifted")
        chain = bld.chain()
        self._derived[rel] = chain
        return chain

    def fusing_step_cert(self, lhs: tuple, rhs: tuple) -> Chain:
        """Chain rho(lhs) => rho(rhs) for one fusing substitution."""
        key = (lhs, rhs)
        chain = self._fstep.get(key)
        if chain is not None:
            return chain
        chain = self._fusing_step_uncached(lhs, rhs)
        if chain.start != self.rho_word(lhs):
            raise CertificateError("fusing step cert starts wrong")
        validate_chain(chain, self.std)
        self._fstep[key] = chain
        return chain

    def _fusing_step_uncached(self, lhs: tuple, rhs: tuple) -> Chain:
        n = self.n
        index = self._provenance_index()
        lw = FusingWord(n, lhs)
        rw = FusingWord(n, rhs)
        key, _ = canonical_fusing_pair(lw, rw)
        rel = index.get(key)
        if rel is not None:
            base = self._derived_pair_cert(rel)
        else:
            mirror_key, _ = canonical_fusing_pair(
                invert_fusing(lw), invert_fusing(rw))
            rel = index.get(mirror_key)
            if rel is None:
                raise CertificateError(
                    f"no provenance for fusing move {lw} => {rw}")
            base = chain_mirror(self._derived_pair_cert(rel),
                                self.std.inverse_table)
        start_l = self.rho_word(fusing_free_reduce(lw).letters)
        start_r = self.rho_word(fusing_free_reduce(rw).letters)
        if base.start == start_l and chain_end(base) == start_r:
            mid = base
        elif base.start == start_r and chain_end(base) == start_l:
            mid = chain_invert(base)
        else:
            raise CertificateError("provenance cert does not fit the move")
        lift_l, _ = self.reduce_lift(lw.letters)
        lift_r, _ = self.reduce_lift(rw.letters)
        return chain_concat(chain_concat(lift_l, mid), chain_invert(lift_r))

    def lift_fusing_chain(self, chain: Chain) -> Chain:
        """Replay a fusing-level chain as a crossing-level chain.

        The input rewrites fusing code words; the output rewrites their
        expansions, certifying each fusing substitution through the
        derived-relation provenance and each cancellation or insertion
        through plain free reduction.
        """
        letters = list(self.alph.decode(chain.start).letters)
        bld = Builder(self.rho_word(letters), self.std.inverse_table)
        inv = self.alph.inverse_table
        for step in chain.steps:
            offset = sum(len(self.rho(l)) for l in letters[:step.pos])
            lhs_letters = tuple(self.alph.letters[c] for c in step.lhs)
            rhs_letters = tuple(self.alph.letters[c] for c in step.rhs)
            if not step.lhs and len(step.rhs) == 2 \
                    and step.rhs[1] == inv[step.rhs[0]]:
                bld.expand_span(offset, self.rho_word(rhs_letters))
            elif not step.rhs and len(step.lhs) == 2 \
                    and step.lhs[1] == inv[step.lhs[0]]:
                length = sum(len(self.rho(l)) for l in lhs_letters)
                bld.reduce_span(offset, length)
            else:
                bld.embed(self.fusing_step_cert(lhs_letters, rhs_letters),
                          offset)
            letters[step.pos:step.pos + len(step.lhs)] = rhs_letters
        if bld.word != self.rho_word(letters):
            raise CertificateError("fusing chain lift drifted")
        return bld.chain()

    # -- normal-form macros (what _traced_normal_form asks of its provider)

    def conj_chain(self, cl: ConjugatedLetter, y: FusingLetter) -> Chain:
        """Fusing chain y^-1 flat(cl) y => flats of conjugate_letter."""
        key = (cl, y)
        chain = self._conj.get(key)
        if chain is not None:
            return chain
        result = conjugate_letter(cl, y)
        start_letters = (y.inverse(),) + cl.flat() + (y,)
        goal_letters = tuple(l for r in result for l in r.flat())
        start = self.enc(start_letters)
        goal = self.enc(goal_letters)
        if start == goal:
            chain = Chain(start, ())
        elif cl.exponent < 0 and not cl.conjugator:
            chain = chain_mirror(self.conj_chain(cl.inverse(), y),
                                 self.alph.inverse_table)
        else:
            chain = self._conj_search(cl, y, start, goal)
        if chain.start != start or chain_end(chain) != goal:
            raise CertificateError(f"conjugation cert wrong for {cl} by {y}")
        validate_chain(chain, self.fus)
        self._conj[key] = chain
        return chain

    def _conj_search(self, cl, y, start: bytes, goal: bytes) -> Chain:
        """Search b y => y * flats (two letters shorter than the full
        conjugated form on both sides), then wrap with the y^-1 collar."""
        inv = self.alph.inverse_table
        ycode = self.alph.code_of[y]
        mid_start = self.enc((cl.letter,)) + bytes([ycode])
        mid_goal = free_reduce_bytes(bytes([ycode]) + goal, inv)
        limit = max(len(mid_start), len(mid_goal), len(goal)) + 4
        mid = tiered_chain(mid_start, mid_goal, self.fus, max_len=limit,
                           max_nodes=600_000, require=True)
        bld = Builder(start, inv)
        bld.embed(mid, 1)
        bld.reduce_span(0, len(bld.word))
        bld.expand_span(0, goal)
        if bld.word != goal:
            raise CertificateError("conjugation glue drifted")
        return bld.chain()

    def twist_chain(self, a: FusingLetter, b: FusingLetter) -> Chain:
        """Fusing chain [a, b] => twisted pair (m-first form)."""
        from .decomposition import _twist_rewrite
        key = (a, b)
        chain = self._twist.get(key)
        if chain is not None:
            return chain
        new = _twist_rewrite(a, b)
        if new is None:
            raise CertificateError(f"{a} {b} is not a twist redex")
        start = self.enc((a, b))
        goal = self.enc(new)
        chain = tiered_chain(start, goal, self.fus, max_len=len(start) + 4,
                             max_nodes=200_000, require=True)
        validate_chain(chain, self.fus)
        self._twist[key] = chain
        return chain


def _v_index(code: int) -> int:
    letter = decode_letter(code)
    if letter.kind is not Kind.V:
        raise CertificateError("block contains a non-virtual letter")
    return letter.index


@functools.lru_cache(maxsize=None)
def get_store(n: int) -> CertStore:
    return CertStore(n)
