"""Acceptance suite: one test per structural criterion, all exact arithmetic.

Every check is tolerance-zero; a line is printed per criterion so the suite
doubles as a report when run with ``pytest -s`` or directly:

    python tests/test_acceptance.py
"""

import sys
import time
from fractions import Fraction

from stringlinks.expansions import (exp_expansion, is_special,
                                    longitude_magnus_images)
from stringlinks.koszul import (ExteriorChain, boundary, exterior_basis, fission,
                                homology, nilpotent_basis, phi_class)
from stringlinks.lie import (HTensorLie, LieElement, bch, d_dimension, lyndon_words,
                             witt_dim)
from stringlinks.milnor import milnor_degree, truncated_milnor
from stringlinks.morita import (MoritaInput, d2_composition, morita_milnor,
                                required_truncation, sigma,
                                verify_commutative_diagram)
from stringlinks.tensor import TensorSeries
from stringlinks.trees import TreeCombination, enumerate_trees
from stringlinks.words import (Braid, Word, artin_action,
                               pure_braid_relations)

from support import (column_rank, is_primitive_by_coproduct, nested_commutator_corpus,
                     random_braid, random_filtration_braid, seeded, shared_expansion)


def report(number, text):
    print(f"[criterion {number:2d}] PASS  {text}")


def magnus_degree_oracle(data, k):
    entries = []
    for image in longitude_magnus_images(data, k):
        component = {w: Fraction(c) for w, c in image.coeffs.items() if len(w) == k}
        entries.append(LieElement.from_tensor(TensorSeries(data.n, k, component)))
    return HTensorLie.from_entries(data.n, tuple(entries))


def test_criterion_01_braid_relations():
    n = 4
    relations = pure_braid_relations(n)
    assert len(relations) == 11
    for lhs, rhs in relations:
        for kk in range(1, n + 1):
            x = Word.gen(n, kk)
            assert artin_action(lhs, x) == artin_action(rhs, x)
    report(1, f"all {len(relations)} defining relations hold on every "
              f"generator at n={n}")


def test_criterion_02_linking_number_layer():
    n = 4
    expansions = [shared_expansion(n, 2),
                  shared_expansion(n, 2, "randomized", 1)]
    checked = 0
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            braid = Braid.gen(n, i, j)
            expected = HTensorLie.from_entries(n, tuple(
                LieElement.generator(n, j) if m == i
                else LieElement.generator(n, i) if m == j
                else LieElement.zero(n)
                for m in range(1, n + 1)))
            oracle = magnus_degree_oracle(braid, 1)
            assert oracle == expected
            for theta in expansions:
                assert milnor_degree(braid, theta, 1) == expected
            checked += 1
    report(2, f"mu_1(A_ij) = X_i(x)X_j + X_j(x)X_i for all {checked} "
              f"generators, both expansions, Magnus oracle agreed")


def test_criterion_03_theta_independence():
    corpus = nested_commutator_corpus()
    rng = seeded(101)
    cases = [(corpus["level2"][0], 2), (corpus["level3"][0], 3)]
    for k in (2, 3):
        cases.append((random_filtration_braid(3, k, rng), k))
    expansions = [shared_expansion(3, 4),
                  shared_expansion(3, 4, "randomized", 1),
                  shared_expansion(3, 4, "randomized", 2)]
    for braid, k in cases:
        values = [milnor_degree(braid, theta, k) for theta in expansions]
        assert values[0] == values[1] == values[2]
        assert not values[0].is_zero()
    report(3, f"degree-k invariant identical across 3 special expansions "
              f"on {len(cases)} braids (k in 2..3)")


def test_criterion_04_truncation_homomorphism():
    theta = shared_expansion(3, 4)
    rng = seeded(202)
    pairs = 0
    for k in (1, 2):
        for _ in range(20):
            if k == 1:
                a = random_braid(3, rng.randint(1, 4), rng)
                b = random_braid(3, rng.randint(1, 4), rng)
            else:
                a = random_filtration_braid(3, 2, rng)
                b = random_filtration_braid(3, 2, rng)
            va = truncated_milnor(a, theta, k)
            vb = truncated_milnor(b, theta, k)
            vab = truncated_milnor(a * b, theta, k)
            assert vab == va + vb
            for m in range(k, 2 * k):
                assert vab.degree_component(m).in_bracket_kernel()
            pairs += 1
    report(4, f"additivity of the [k,2k) truncation on {pairs} random "
              f"pairs, degree parts in the bracket kernel")


def test_criterion_05_hopf_bch_layer():
    rng = seeded(303)
    shapes = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]

    def random_primitive(n, trunc):
        coords = {}
        for d in range(1, trunc + 1):
            for w in lyndon_words(n, d):
                if rng.random() < 0.25:
                    c = rng.randint(-3, 3)
                    if c:
                        coords[w] = Fraction(c)
        return LieElement(n, coords).to_tensor(trunc)

    for count in range(100):
        n, trunc = shapes[count % len(shapes)]
        a = random_primitive(n, trunc)
        b = random_primitive(n, trunc)
        c = bch(a, b)
        assert is_primitive_by_coproduct(c)
        if count % 10 == 0:
            assert a.exp().log() == a
            u = TensorSeries.one(n, trunc) + random_primitive(n, trunc)
            assert u.log().exp() == u
    report(5, "bch of 100 random primitive pairs primitive; exp/log exact "
              "round trips (n <= 3, N <= 6)")


def test_criterion_06_special_expansion_builder():
    for n, trunc in [(2, 5), (3, 5), (4, 4)]:
        theta = shared_expansion(n, trunc)
        assert is_special(theta).is_special
    for n in (2, 3):
        control = is_special(exp_expansion(n, 4))
        assert control.grouplike and control.tangential
        assert not control.is_special
        assert control.failure_degree == 2
    report(6, "builder passes the independent verifier at (2,5), (3,5), "
              "(4,4); exp-expansion fails normalisation at degree 2")


def test_criterion_07_koszul_layer():
    rng = seeded(404)
    for n, cap in [(2, 5), (3, 4), (3, 5)]:
        basis = nilpotent_basis(n, cap)
        for p in (2, 3, 4):
            coords = {}
            for d in range(p, p * cap + 1):
                for t in exterior_basis(basis, p, d):
                    if rng.random() < 0.1:
                        c = rng.randint(-3, 3)
                        if c:
                            coords[t] = Fraction(c)
            chain = ExteriorChain(basis, p, coords)
            assert boundary(boundary(chain)).is_zero()
    trees_checked = 0
    for n in (2, 3):
        for degree in range(1, 5):
            basis = nilpotent_basis(n, max(degree, 1))
            for t in enumerate_trees(n, degree):
                lhs = boundary(fission(t, basis))
                rhs = ExteriorChain.zero(basis, 2)
                for idx, (color, _expr) in enumerate(t.presentations()):
                    rhs = rhs + ExteriorChain.wedge(
                        basis, [LieElement.generator(n, color), t.comm(idx)])
                assert lhs == rhs
                trees_checked += 1
    report(7, f"d o d = 0 on random chains up to (3,5); fission boundary "
              f"formula exact on {trees_checked} enumerated trees")


IGUSA_ORR_CASES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_criterion_08_igusa_orr_dimensions():
    dims = []
    for n, k in IGUSA_ORR_CASES:
        lhs = homology(3, n, k - 1).dimension
        rhs = sum(d_dimension(n, l) for l in range(k, 2 * k - 1))
        assert lhs == rhs
        dims.append(f"(n={n},k={k}): {lhs}")
    report(8, "dim H_3 equals the bracket-kernel dimension sum; " + ", ".join(dims))


def test_criterion_09_phi_isomorphism():
    for n, k in IGUSA_ORR_CASES:
        span = []
        for l in range(k, 2 * k - 1):
            span.extend(enumerate_trees(n, l))
        columns = [list(phi_class(TreeCombination(n).add_diagram(t, 1), k).coords)
                   for t in span]
        rank = column_rank(columns)
        assert rank == homology(3, n, k - 1).dimension
    report(9, "fission class matrix has rank dim H_3 on the enumerated "
              "span for all four (n,k) cases")


def test_criterion_10_morita_milnor():
    corpus = nested_commutator_corpus()
    rng = seeded(505)
    checked = {"sigma": 0, "pairs": 0, "diagram": 0, "d2": 0, "kernel": 0}
    for k in (1, 2):
        theta = shared_expansion(3, required_truncation(k))
        level = corpus["level2"] if k == 1 else corpus["level3"]
        for braid in level:
            inp = MoritaInput(braid, theta, k)
            assert boundary(sigma(inp)).is_zero()
            checked["sigma"] += 1
            forward = morita_milnor(inp, pivot_order="forward")
            backward = morita_milnor(inp, pivot_order="backward")
            assert forward == backward
            assert verify_commutative_diagram(inp)
            checked["diagram"] += 1
            assert d2_composition(forward) == milnor_degree(braid, theta, k + 1)
            checked["d2"] += 1
        npairs = 6 if k == 1 else 4
        for _ in range(npairs):
            a, b = rng.sample(level, 2)
            if rng.random() < 0.5:
                a = a * rng.choice(level)
            cls_a = morita_milnor(MoritaInput(a, theta, k))
            cls_b = morita_milnor(MoritaInput(b, theta, k))
            cls_ab = morita_milnor(MoritaInput(a * b, theta, k))
            assert cls_ab == cls_a + cls_b
            checked["pairs"] += 1
        deep = corpus["level3"] if k == 1 else corpus["level5"]
        for braid in deep:
            cls = morita_milnor(MoritaInput(braid, theta, k))
            assert cls.is_zero()
            checked["kernel"] += 1
    assert checked["pairs"] >= 10
    report(10, "sigma cycles; class chain-choice independent; additive on "
               f"{checked['pairs']} product pairs; diagram commutes; d2 "
               f"recovers mu_(k+1); {checked['kernel']} deep braids map to 0")


ALL_CRITERIA = [
    test_criterion_01_braid_relations,
    test_criterion_02_linking_number_layer,
    test_criterion_03_theta_independence,
    test_criterion_04_truncation_homomorphism,
    test_criterion_05_hopf_bch_layer,
    test_criterion_06_special_expansion_builder,
    test_criterion_07_koszul_layer,
    test_criterion_08_igusa_orr_dimensions,
    test_criterion_09_phi_isomorphism,
    test_criterion_10_morita_milnor,
]


def main():
    failures = 0
    start = time.time()
    for number, criterion in enumerate(ALL_CRITERIA, start=1):
        t0 = time.time()
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"[criterion {number:2d}] FAIL  {exc}")
        print(f"              ({time.time() - t0:.1f}s)")
    print(f"total: {time.time() - start:.1f}s, "
          f"{len(ALL_CRITERIA) - failures}/{len(ALL_CRITERIA)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
