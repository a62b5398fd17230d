from braidforge import (exponent_invariants, expand_fusing, pair_counts,
                        permutation_of)
from braidforge.relations import (elementary_string_relation_instances,
                                  fusing_moves, pure_relation_instances,
                                  standard_relation_instances, standard_moves)


def test_both_sides_share_every_invariant():
    for n in (2, 3, 4, 5):
        for rel in standard_relation_instances(n):
            assert permutation_of(rel.lhs) == permutation_of(rel.rhs), rel.name
            assert exponent_invariants(rel.lhs) == exponent_invariants(rel.rhs), rel.name


def test_family_counts_small():
    by_family = {}
    for rel in standard_relation_instances(3):
        by_family[rel.family] = by_family.get(rel.family, 0) + 1
    assert by_family == {1: 8, 2: 2, 3: 1, 4: 1, 5: 4, 6: 4, 7: 4}


def test_distant_relations_appear_from_four_strands():
    assert not [r for r in standard_relation_instances(3) if r.family == 8]
    distant = [r for r in standard_relation_instances(4) if r.family == 8]
    assert len(distant) == 16


def test_string_relation_sides_agree_on_invariants():
    for n in (2, 3, 4):
        for rel in elementary_string_relation_instances(n):
            assert permutation_of(rel.lhs) == permutation_of(rel.rhs), rel.name
            assert exponent_invariants(rel.lhs) == exponent_invariants(rel.rhs), rel.name


def test_pure_relation_sides_are_pure_and_balanced():
    for n in (3, 4):
        for rel in pure_relation_instances(n):
            lhs = expand_fusing(rel.lhs)
            rhs = expand_fusing(rel.rhs)
            assert permutation_of(lhs).is_identity(), rel.name
            assert permutation_of(rhs).is_identity(), rel.name
            assert pair_counts(rel.lhs) == pair_counts(rel.rhs), rel.name


def test_instance_counts_at_three_strands():
    std = standard_relation_instances(3)
    string = elementary_string_relation_instances(3)
    assert len(std) == 24
    assert len(string) == 14
    assert len(pure_relation_instances(3)) == 24
    for rel in std + string:
        assert permutation_of(rel.lhs) == permutation_of(rel.rhs), rel.name


def test_move_tables_are_orientation_closed():
    """Every substitution runs both ways and survives reverse-invert, so
    chains can be inverted and mirrored without leaving the table."""
    from braidforge.chains import _rev_inv

    for table in (standard_moves(3), fusing_moves(3)):
        for a, b in table.allowed:
            assert (b, a) in table.allowed
            assert (_rev_inv(a, table.inverse_table),
                    _rev_inv(b, table.inverse_table)) in table.allowed
        moves = set(zip(table.patterns, table.replacements))
        for a, b in moves:
            assert (a, b) in table.allowed
        # empty left sides stay out of the scan list: they would match at
        # every position and drown the search
        assert all(a for a, _ in moves)


def test_inverse_table_is_involutive():
    for table in (standard_moves(4), fusing_moves(4)):
        inv = table.inverse_table
        for code in set(b"".join(a + b for a, b in
                                 zip(table.patterns, table.replacements))):
            assert inv[inv[code]] == code
