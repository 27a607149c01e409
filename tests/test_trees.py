from fractions import Fraction

import pytest

from stringlinks.koszul import ExteriorChain, boundary, nilpotent_basis
from stringlinks.lie import HTensorLie, LieElement, d_dimension
from stringlinks.trees import (ScaleError, TreeCombination, TreeDiagram,
                               enumerate_trees, eta, eta_combination,
                               eta_inverse, fission, fission_combination)

from support import column_rank, enumerate_trees_reference, seeded


def build(n, root, expr):
    return TreeDiagram.build(n, root, expr)


def random_expr(n, leaves, rng):
    if leaves == 1:
        return rng.randint(1, n)
    split = rng.randint(1, leaves - 1)
    return (random_expr(n, split, rng), random_expr(n, leaves - split, rng))


def test_canonical_form_identifies_presentations():
    a, sa = build(3, 1, 2)
    b, sb = build(3, 2, 1)
    assert a == b and sa == sb == 1
    t1, s1 = build(3, 3, (1, 2))
    t2, s2 = build(3, 1, (2, 3))
    assert t1 == t2 and s1 == s2 == 1
    t3, s3 = build(3, 3, (2, 1))   # swapped children: antisymmetry sign
    assert t3 == t1 and s3 == -1


def test_as_degenerate_trees_vanish():
    t, s = build(3, 1, (2, 2))
    assert t is None and s == 0
    deep, s = build(2, 1, ((1, 2), (1, 2)))
    assert deep is None and s == 0


def test_recanonicalising_presentations_is_stable():
    rng = seeded(3)
    for _ in range(30):
        n = rng.randint(2, 3)
        expr = random_expr(n, rng.randint(1, 4), rng)
        t, s = build(n, rng.randint(1, n), expr)
        if t is None:
            continue
        for root, ex in t.presentations():
            again, sign = build(n, root, ex)
            assert again == t and sign == 1


def test_comm_single_edge_and_tripod():
    t, s = build(3, 1, 2)
    leaves = t.leaves()
    root_at_1 = leaves.index(1)
    assert t.comm(root_at_1).scale(s) == LieElement.generator(3, 2)
    # tripod rooted at the leaf colored 3, planar children (1, 2): [X1, X2]
    t, s = build(3, 3, (1, 2))
    idx = t.leaves().index(3)
    expected = LieElement.generator(3, 1).bracket(LieElement.generator(3, 2))
    assert t.comm(idx).scale(s) == expected
    # the mirrored embedding gives the antisymmetric value
    t2, s2 = build(3, 3, (2, 1))
    assert t2.comm(t2.leaves().index(3)).scale(s2) == expected.scale(-1)


def test_comm_paper_shaped_example():
    # degree-5 caterpillar: comm at the extra root leaf is
    # [[[v1,v2],[v3,v4]],v5] for pairwise distinct colors v1..v5
    n = 6
    t, s = build(n, 6, (((1, 2), (3, 4)), 5))
    idx = t.leaves().index(6)
    v = [LieElement.generator(n, k) for k in range(1, 6)]
    expected = (v[0].bracket(v[1])).bracket(v[2].bracket(v[3])).bracket(v[4])
    assert t.comm(idx).scale(s) == expected


def test_eta_single_edge():
    t, s = build(2, 1, 2)
    assert s == 1
    assert eta(t) == HTensorLie.from_entries(2, (LieElement.generator(2, 2),
                                                 LieElement.generator(2, 1)))


def test_eta_lands_in_bracket_kernel():
    for n, deg in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for t in enumerate_trees(n, deg):
            assert eta(t).in_bracket_kernel()


def test_eta_respects_antisymmetry_signs():
    rng = seeded(8)
    for _ in range(20):
        n = 3
        expr = random_expr(n, rng.randint(2, 4), rng)
        root = rng.randint(1, n)
        t, s = build(n, root, expr)
        direct = HTensorLie.zero(n)
        from stringlinks.trees import _expr_lie, _presentations
        for r, ex in _presentations(root, expr):
            entries = list(direct.entries)
            entries[r - 1] = entries[r - 1] + _expr_lie(n, ex)
            direct = HTensorLie.from_entries(n, tuple(entries))
        if t is None:
            assert direct.is_zero()
        else:
            assert direct == eta(t).scale(s)


def test_enumeration_counts():
    assert len(enumerate_trees(2, 1)) == 3
    for n in (2, 3, 4):
        assert len(enumerate_trees(n, 1)) == n * (n + 1) // 2
    # degree-2 trees with two colors all die by antisymmetry
    assert len(enumerate_trees(2, 2)) == 0


@pytest.mark.parametrize("n, degree", [(n, d) for n in range(1, 5) for d in range(1, 5)]
                         + [(2, 5), (3, 5)])
def test_enumeration_matches_shape_coloring_oracle(n, degree):
    # rooting the child-sorted expressions at every colour reaches the same
    # canonical diagrams, in the same order, as every shape x colouring x root
    assert enumerate_trees(n, degree) == enumerate_trees_reference(n, degree)


def test_enumeration_scale_guard():
    with pytest.raises(ScaleError):
        enumerate_trees(5, 2)
    with pytest.raises(ScaleError):
        enumerate_trees(2, 6)


def test_eta_rank_certifies_spanning():
    # the enumerated span has eta-image of full kernel dimension
    for n, deg in [(2, 3), (2, 4), (3, 2), (3, 3)]:
        span = enumerate_trees(n, deg)
        columns = [eta(t).coordinates(deg) for t in span]
        assert column_rank(columns) == d_dimension(n, deg)


def test_eta_inverse_round_trip():
    rng = seeded(21)
    for n, deg in [(2, 3), (3, 2), (3, 3)]:
        span = enumerate_trees(n, deg)
        comb = TreeCombination(n)
        for t in span:
            if rng.random() < 0.4:
                comb = comb.add_diagram(t, rng.randint(-2, 2))
        value = eta_combination(comb)
        back = eta_inverse(value)
        assert eta_combination(back) == value


def test_eta_inverse_single_edge():
    value = HTensorLie.from_entries(2, (LieElement.generator(2, 2),
                                        LieElement.generator(2, 1)))
    comb = eta_inverse(value)
    t, _ = build(2, 1, 2)
    assert comb.coeffs == {t: Fraction(1)}
    assert eta_inverse(HTensorLie.zero(2)).is_zero()


def test_eta_inverse_requires_kernel_membership():
    bad = HTensorLie.from_entries(2, (LieElement.generator(2, 2), LieElement.zero(2)))
    with pytest.raises(ValueError):
        eta_inverse(bad)


def test_ihx_relators_die_under_eta():
    rng = seeded(55)
    n = 3
    for _ in range(20):
        a = random_expr(n, rng.randint(1, 2), rng)
        b = random_expr(n, rng.randint(1, 2), rng)
        c = random_expr(n, 1, rng)
        root = rng.randint(1, n)
        comb = TreeCombination(n)
        for left, right, tail in [(a, b, c), (b, c, a), (c, a, b)]:
            comb = comb.add_tree(root, ((left, right), tail), 1)
        assert eta_combination(comb).is_zero()
        # and generically the relator itself is a nonzero combination,
        # i.e. the kernel of eta on the span is genuinely exercised


def test_fission_degree_one_is_zero():
    basis = nilpotent_basis(2, 1)
    t, _ = build(2, 1, 2)
    assert fission(t, basis).is_zero()


def test_fission_tripod_single_term():
    basis = nilpotent_basis(3, 1)
    t, s = build(3, 1, (2, 3))
    chain = fission(t, basis).scale(s)
    # one trivalent vertex; the wedge of the three leaves up to the stored
    # embedding; must be +-X1^X2^X3 and a cycle
    (tup, coeff), = chain.coeffs.items()
    assert tup == (0, 1, 2) and coeff in (1, -1)
    assert boundary(chain).is_zero()


def test_boundary_of_fission_formula():
    # d3(fission(T)) = sum over leaves col(v) ^ comm(T_v), for every
    # enumerated tree at small scale (the acceptance suite pushes further)
    for n, deg in [(2, 3), (3, 2), (3, 3)]:
        basis = nilpotent_basis(n, deg)
        for t in enumerate_trees(n, deg):
            lhs = boundary(fission(t, basis))
            rhs = ExteriorChain.zero(basis, 2)
            for idx, (color, _expr) in enumerate(t.presentations()):
                x = LieElement.generator(n, color)
                rhs = rhs + ExteriorChain.wedge(basis, [x, t.comm(idx)])
            assert lhs == rhs


def test_fission_combination_linear():
    n = 3
    basis = nilpotent_basis(n, 2)
    t1, _ = build(n, 1, (2, 3))
    comb = TreeCombination(n).add_diagram(t1, Fraction(3, 2))
    assert fission_combination(comb, basis) == fission(t1, basis).scale(Fraction(3, 2))


def test_dot_export_mentions_leaves():
    t, _ = build(3, 1, (2, 3))
    dot = t.to_dot()
    assert dot.startswith("graph")
    assert dot.count("shape=circle") == 3
    assert dot.count("shape=point") == 1
