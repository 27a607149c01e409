import hashlib
from fractions import Fraction

import pytest

from stringlinks.koszul import (ExteriorChain, HomologyClass, NotACycleError,
                                _boundary_columns, boundary, exterior_basis,
                                homology, multidegree_blocks, nilpotent_basis,
                                phi_class)
from stringlinks.lie import LieElement, d_dimension, witt_dim
from stringlinks.trees import TreeCombination, TreeDiagram, enumerate_trees

from support import (boundary_columns_reference, column_rank,
                     homology_blocks_reference, seeded)


def random_chain(basis, p, rng, density=0.15):
    coords = {}
    for d in range(p, p * basis.degree_cap + 1):
        for t in exterior_basis(basis, p, d):
            if rng.random() < density:
                c = rng.randint(-3, 3)
                if c:
                    coords[t] = Fraction(c)
    return ExteriorChain(basis, p, coords)


def test_nilpotent_basis_size():
    basis = nilpotent_basis(3, 3)
    assert len(basis) == sum(witt_dim(3, d) for d in (1, 2, 3))
    assert basis.degrees[:3] == (1, 1, 1)


def test_boundary_of_a_wedge_pair():
    basis = nilpotent_basis(2, 2)
    a = LieElement.generator(2, 1)
    b = LieElement.generator(2, 2)
    chain = ExteriorChain.wedge(basis, [a, b])
    image = boundary(chain)
    # d2(a ^ b) = -[a, b]
    bracket = a.bracket(b)
    expected = ExteriorChain(basis, 1,
                             {(basis.index[(1, 2)],): Fraction(-1)})
    assert image == expected
    assert bracket == LieElement(2, {(1, 2): Fraction(1)})


@pytest.mark.parametrize("n, cap", [(2, 5), (3, 3), (4, 2)])
def test_bracket_entry_matches_fraction_brackets(n, cap):
    # every pair of basis elements: the structure constants reindexed onto
    # the basis agree, in values and order, with the Fraction bracket of the
    # two basis words reduced into the quotient
    basis = nilpotent_basis(n, cap)
    elements = [LieElement(n, {w: Fraction(1)}) for w in basis.words]
    for a, x in enumerate(elements):
        for b, y in enumerate(elements):
            expected = tuple(sorted(basis.reduce_lie(x.bracket(y)).items()))
            assert basis.bracket_entry(a, b) == expected


def test_boundary_squares_to_zero():
    rng = seeded(19)
    for n, cap in [(2, 3), (3, 3), (3, 4)]:
        basis = nilpotent_basis(n, cap)
        for p in (2, 3, 4):
            chain = random_chain(basis, p, rng)
            assert boundary(boundary(chain)).is_zero()


def test_boundary_preserves_internal_degree():
    rng = seeded(23)
    basis = nilpotent_basis(3, 3)
    chain = random_chain(basis, 3, rng, density=0.3)
    for d in chain.degrees():
        component = chain.degree_component(d)
        img = boundary(component)
        assert all(deg == d for deg in img.degrees())


def test_wedge_antisymmetry():
    basis = nilpotent_basis(2, 2)
    a = LieElement.generator(2, 1)
    b = LieElement.generator(2, 2)
    assert ExteriorChain.wedge(basis, [a, b]) == ExteriorChain.wedge(
        basis, [b, a]).scale(-1)
    assert ExteriorChain.wedge(basis, [a, a]).is_zero()


def test_h3_of_abelian_quotient():
    h = homology(3, 3, 1)
    assert h.dimension == 1
    rep = h.representative(0)
    assert boundary(rep).is_zero()


def test_boundaries_project_to_zero():
    rng = seeded(31)
    basis = nilpotent_basis(3, 2)
    h = homology(3, 3, 2)
    for _ in range(5):
        four = random_chain(basis, 4, rng, density=0.4)
        cls = h.project(boundary(four))
        assert cls.is_zero()


def test_projection_rejects_non_cycles():
    basis = nilpotent_basis(2, 2)
    h = homology(3, 2, 2)
    a, b, c = (LieElement.generator(2, 1), LieElement.generator(2, 2),
               LieElement(2, {(1, 2): Fraction(1)}))
    chain = ExteriorChain.wedge(basis, [a, b, c])
    if not boundary(chain).is_zero():
        with pytest.raises(NotACycleError):
            h.project(chain)


def test_igusa_orr_dimensions_small():
    # dim H_3 of the class-(k-1) quotient equals the sum of bracket-kernel
    # dimensions in degrees k..2k-2: the left side by elimination in the
    # Koszul complex, the right side by Witt-number arithmetic
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        lhs = homology(3, n, k - 1).dimension
        rhs = sum(d_dimension(n, l) for l in range(k, 2 * k - 1))
        assert lhs == rhs


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_h3_dimension_per_internal_degree(n, k):
    # H_3 of the class-k quotient in internal degree d is the bracket-kernel
    # dimension n W(n, d-1) - W(n, d) for k+2 <= d <= 2k+1 and zero in every
    # other degree (a degree without chains has no block in the table): a
    # Witt-number count against the per-block elimination
    table = homology(3, n, k).degree_table()
    found = {d: row["homology"] for d, row in table.items() if row["homology"]}
    expected = {d: n * witt_dim(n, d - 1) - witt_dim(n, d) for d in range(k + 2, 2 * k + 2)}
    assert found == {d: dim for d, dim in expected.items() if dim}


def test_homology_degree_components_sum():
    h = homology(3, 3, 2)
    rng = seeded(3)
    basis = nilpotent_basis(3, 2)
    chain = random_chain(basis, 4, rng, density=0.5)
    cls = h.project(boundary(chain) + h.representative(0).scale(2))
    total = None
    for d in set(deg for deg, _ in h.rep_index):
        part = cls.degree_component(d)
        total = part if total is None else total + part
    assert total == cls
    zero = HomologyClass.zero(h)
    assert zero.degree_component(3).is_zero()


def test_phi_class_zero_and_degree_shift():
    n, k = 3, 2
    assert phi_class(TreeCombination(n), k).is_zero()
    span = enumerate_trees(n, 2)
    t = span[0]
    cls = phi_class(TreeCombination(n).add_diagram(t, 1), k)
    assert cls.degrees() == [t.degree + 1]


def test_phi_rank_equals_h3_dimension():
    n, k = 3, 2
    span = enumerate_trees(n, 2)
    columns = [list(phi_class(TreeCombination(n).add_diagram(t, 1), k).coords)
               for t in span]
    assert column_rank(columns) == homology(3, n, k - 1).dimension


def test_phi_class_rejects_out_of_range_degrees():
    n = 3
    t, _ = TreeDiagram.build(n, 1, (2, 3))  # degree 2
    comb = TreeCombination(n).add_diagram(t, 1)
    with pytest.raises(ValueError):
        phi_class(comb, 4)  # degree-2 trees not in [4, 6]


def test_fingerprint_deterministic():
    a = homology(3, 3, 2).fingerprint()
    # rebuilding from scratch gives the same basis matrix
    from stringlinks.koszul import HomologyBasis
    fresh = HomologyBasis(3, 3, 2)
    assert fresh.fingerprint() == a
    # the hash is of this repr, whether or not the zeros are the shared Q0
    payload = repr((3, 3, 2, [(d, [[str(c) for c in rep] for rep in blk.reps])
                              for d, blk in sorted(fresh.blocks.items())]))
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == a
    for blk in fresh.blocks.values():
        blk.reps[:] = [[Fraction(c.numerator, c.denominator) for c in rep]
                       for rep in blk.reps]
    assert fresh.fingerprint() == a


def test_reduce_to_smaller_quotient():
    big = nilpotent_basis(2, 3)
    small = nilpotent_basis(2, 2)
    x1 = LieElement.generator(2, 1)
    x2 = LieElement.generator(2, 2)
    deep = LieElement(2, {(1, 1, 2): Fraction(1)})
    chain = ExteriorChain.wedge(big, [x1, x2]) + ExteriorChain.wedge(big, [x1, deep])
    reduced = chain.reduce_to(small)
    assert reduced == ExteriorChain.wedge(small, [x1, x2])
    with pytest.raises(ValueError):
        small_chain = ExteriorChain.wedge(small, [x1, x2])
        small_chain.reduce_to(big)


def test_degree_table_shape():
    h = homology(3, 3, 2)
    table = h.degree_table()
    assert sum(row["homology"] for row in table.values()) == h.dimension
    for row in table.values():
        assert row["cycles"] >= row["boundaries"]
        assert row["homology"] == row["cycles"] - row["boundaries"]



# Pinned fingerprints and dimensions of homology(p, n, cap): a change to the
# representative selection that moves them changes every class coordinate.
# The stored cycle counts are checked against an independent rank.
@pytest.mark.parametrize("p, n, cap, fingerprint, dimension", [
    (3, 2, 3, "8e22ac0aa64189ce", 3),
    (3, 3, 2, "d30a0585a86050e2", 12),
    (3, 4, 2, "fa2b1cab16cafd93", 56),
    (3, 3, 3, "3d269c4be33216af", 70),
    (2, 3, 3, "0f26a566767d1f1b", 18),
    (4, 3, 2, "85a25d289746aea2", 8),
])
def test_pinned_homology_bases(p, n, cap, fingerprint, dimension):
    h = homology(p, n, cap)
    assert h.fingerprint() == fingerprint
    assert h.dimension == dimension
    for d, row in h.degree_table().items():
        columns = boundary_columns_reference(h.basis, p, d)
        assert row["cycles"] == row["chains"] - column_rank(columns)


def test_boundary_columns_are_exact_fractions():
    # d_p on every multidegree part: one column per tuple of the part, each
    # an exact Fraction per codomain tuple of the part
    basis = nilpotent_basis(3, 2)
    for p in (2, 3, 4):
        for d in range(p, 2 * p + 1):
            for m, (_, tuples) in multidegree_blocks(basis, p, d).items():
                columns, codomain = _boundary_columns(basis, p, d, m)
                assert len(columns) == len(tuples)
                for col in columns:
                    assert len(col) == len(codomain)
                    assert all(type(c) is Fraction for c in col)


@pytest.mark.parametrize("p, n, cap, fingerprint, dimension", [
    (3, 3, 4, "4e38e6db9107c120", 436),
    (3, 4, 3, "154581b4d6a1ab9a", 522),
])
def test_pinned_larger_homology_bases(p, n, cap, fingerprint, dimension):
    # the bases the k = 4 pipeline at n = 3 and the k = 3 one at n = 4 project
    # onto; their largest blocks split into many multidegree parts
    h = homology(p, n, cap)
    assert h.fingerprint() == fingerprint
    assert h.dimension == dimension


@pytest.mark.parametrize("p, n, cap", [
    (3, 2, 3), (3, 3, 2), (3, 4, 2), (3, 3, 3), (2, 3, 3), (4, 3, 2),
    (2, 2, 4), (4, 3, 3),
])
def test_homology_blocks_match_whole_block_elimination(p, n, cap):
    # eliminating one multidegree part at a time and putting the vectors back
    # together gives exactly what one Fraction elimination of each whole
    # internal-degree block gives: the same image basis, representatives
    # (in the same order) and cycle counts
    h = homology(p, n, cap)
    reference = homology_blocks_reference(p, n, cap)
    assert sorted(h.blocks) == sorted(reference)
    for d, (image_basis, reps, cycles) in reference.items():
        block = h.blocks[d]
        assert block.tuples == exterior_basis(h.basis, p, d)
        assert block.image_basis == image_basis
        assert block.reps == reps
        assert block.cycles == cycles


@pytest.mark.parametrize("p, n, cap", [(3, 3, 3), (4, 3, 2)])
def test_boundary_keeps_multidegree(p, n, cap):
    # every unit p-chain's boundary lies in the unit's own multidegree, which
    # is what lets each internal-degree block split into multidegree parts
    basis = nilpotent_basis(n, cap)
    for d in range(p, p * cap + 1):
        parts = multidegree_blocks(basis, p, d)
        assert sorted(j for rows, _ in parts.values() for j in rows) == list(
            range(len(exterior_basis(basis, p, d))))
        for m, (_, tuples) in parts.items():
            assert sum(m) == d
            for t in tuples:
                image = boundary(ExteriorChain(basis, p, {t: Fraction(1)}))
                assert all(basis.multidegree(s) == m for s in image.coeffs)
