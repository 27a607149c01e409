from fractions import Fraction

import pytest

from stringlinks.koszul import (ExteriorChain, boundary, homology, nilpotent_basis,
                                phi_class)
from stringlinks.lie import LieElement
from stringlinks.milnor import FiltrationError, milnor_degree, milnor_window
from stringlinks.morita import (MoritaInput, d2_composition, diagram_sides,
                                morita_milnor, required_truncation, sigma,
                                solve_boundary, verify_commutative_diagram)
from stringlinks.trees import TreeCombination, enumerate_trees, eta, eta_inverse
from stringlinks.words import Braid, commutator

from support import nested_commutator_corpus, seeded, shared_expansion


def theta3():
    return shared_expansion(3, required_truncation(1))


def test_morita_input_validation():
    corpus = nested_commutator_corpus()
    with pytest.raises(ValueError):
        MoritaInput(corpus["level2"][0], shared_expansion(3, 2), 1)
    with pytest.raises(ValueError):
        MoritaInput(corpus["level2"][0], theta3(), 0)
    inp = MoritaInput(corpus["g"][0], theta3(), 1)  # level-1 braid: not in SL(2)
    with pytest.raises(FiltrationError):
        sigma(inp)


def test_sigma_identity_braid():
    inp = MoritaInput(Braid.identity(3), theta3(), 1)
    assert sigma(inp).is_zero()


def test_sigma_is_a_cycle_with_expected_degrees():
    corpus = nested_commutator_corpus()
    inp = MoritaInput(corpus["level2"][0], theta3(), 1)
    chain = sigma(inp)
    assert boundary(chain).is_zero()
    assert chain.degrees() == [3]
    assert chain.basis.degree_cap == 2 * inp.k + 1


def test_solve_boundary_on_constructed_instances():
    rng = seeded(47)
    basis = nilpotent_basis(3, 2)
    for _ in range(5):
        coords = {}
        from stringlinks.koszul import exterior_basis
        for d in range(3, 7):
            for t in exterior_basis(basis, 3, d):
                if rng.random() < 0.3:
                    c = rng.randint(-2, 2)
                    if c:
                        coords[t] = Fraction(c)
        three = ExteriorChain(basis, 3, coords)
        target = boundary(three)
        solved = solve_boundary(target)
        assert boundary(solved) == target
        solved_back = solve_boundary(target, pivot_order="backward")
        assert boundary(solved_back) == target
    assert solve_boundary(ExteriorChain.zero(basis, 2)).is_zero()
    with pytest.raises(ValueError):
        solve_boundary(target, pivot_order="sideways")


def test_morita_identity_is_zero_class():
    inp = MoritaInput(Braid.identity(3), theta3(), 1)
    assert morita_milnor(inp).is_zero()


def test_class_independent_of_bounding_chain():
    corpus = nested_commutator_corpus()
    for braid in corpus["level2"]:
        inp = MoritaInput(braid, theta3(), 1)
        forward = morita_milnor(inp, pivot_order="forward")
        backward = morita_milnor(inp, pivot_order="backward")
        assert forward == backward
        assert not forward.is_zero()


def test_additivity():
    corpus = nested_commutator_corpus()
    a, b = corpus["level2"][0], corpus["level2"][1]
    cls_a = morita_milnor(MoritaInput(a, theta3(), 1))
    cls_b = morita_milnor(MoritaInput(b, theta3(), 1))
    cls_ab = morita_milnor(MoritaInput(a * b, theta3(), 1))
    assert cls_ab == cls_a + cls_b


def test_deeper_inputs_map_to_zero():
    corpus = nested_commutator_corpus()
    for braid in corpus["level3"][:2]:  # in SL(3) = SL(2k+1) for k=1
        cls = morita_milnor(MoritaInput(braid, theta3(), 1))
        assert cls.is_zero()


def test_commutative_diagram_k1():
    corpus = nested_commutator_corpus()
    for braid in corpus["level2"]:
        inp = MoritaInput(braid, theta3(), 1)
        assert verify_commutative_diagram(inp)
    product = corpus["level2"][0] * corpus["level2"][2]
    assert verify_commutative_diagram(MoritaInput(product, theta3(), 1))


def test_commutative_diagram_k2():
    corpus = nested_commutator_corpus()
    theta = shared_expansion(3, required_truncation(2))
    inp = MoritaInput(corpus["level3"][0], theta, 2)
    lhs, rhs = diagram_sides(inp)
    assert lhs == rhs
    assert not lhs.is_zero()


def test_expansion_independence_of_the_class():
    corpus = nested_commutator_corpus()
    braid = corpus["level2"][0]
    cls_a = morita_milnor(MoritaInput(braid, theta3(), 1))
    theta_b = shared_expansion(3, required_truncation(1), "randomized", 3)
    cls_b = morita_milnor(MoritaInput(braid, theta_b, 1))
    # classes live over the same cached homology basis, so they compare
    assert cls_a == cls_b


def test_d2_composition_recovers_degree_invariant():
    corpus = nested_commutator_corpus()
    braid = corpus["level2"][0]
    inp = MoritaInput(braid, theta3(), 1)
    cls = morita_milnor(inp)
    assert d2_composition(cls) == milnor_degree(braid, theta3(), 2)
    assert d2_composition(cls - cls).is_zero()


def test_d2_on_pure_fission_classes():
    # x = Phi(T) with deg T = k+1 must return eta(T)
    n, k = 3, 1
    for t in enumerate_trees(n, k + 1):
        cls = phi_class(TreeCombination(n).add_diagram(t, 1), k + 1)
        assert d2_composition(cls) == eta(t)


def paper_class(braid, theta, k):
    """The paper's route, from Y exact through degree 2k + 1: sigma sums
    l = k+1..2k+1 over the class-(2k+1) quotient; the reduced sigma and the
    class in H_3 of the class-k quotient."""
    n = theta.n
    basis = nilpotent_basis(n, 2 * k + 1)
    value = milnor_window(braid, theta, k + 1, 2 * k + 1)
    chain = ExteriorChain.zero(basis, 2)
    for i, y in enumerate(value.entries, start=1):
        chain = chain + ExteriorChain.wedge(basis, [LieElement.generator(n, i), y])
    assert boundary(chain).is_zero()
    reduced = chain.reduce_to(nilpotent_basis(n, 2 * k))
    t_chain = solve_boundary(reduced).reduce_to(nilpotent_basis(n, k))
    return reduced, homology(3, n, k).project(t_chain)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1)])
@pytest.mark.parametrize("strategy,seed", [("canonical", 0), ("randomized", 3)])
def test_truncation_2k_plus_1_reads_what_2k_plus_2_did(n, k, strategy, seed):
    # the top term X_i ^ Y_i^(2k+1) has internal degree 2k+2 and dies in the
    # reduction, so expansions at 2k + 1 give everything 2k + 2 gave
    g = [Braid.gen(n, 1, 2), Braid.gen(n, 1, 3), Braid.gen(n, 2, 3)]
    braid = commutator(g[0], g[1]) if k == 1 else commutator(g[2], commutator(g[0], g[1]))
    if n == 4:
        braid = braid * commutator(Braid.gen(n, 1, 4), Braid.gen(n, 3, 4))
    small = shared_expansion(n, 2 * k + 1, strategy, seed)
    big = shared_expansion(n, 2 * k + 2, strategy, seed)
    inp = MoritaInput(braid, small, k)
    assert required_truncation(k) == 2 * k + 1
    reduced, cls = paper_class(braid, big, k)
    assert sigma(inp).reduce_to(nilpotent_basis(n, 2 * k)) == reduced
    lhs, rhs = diagram_sides(inp)
    assert lhs == cls == rhs and not cls.is_zero()
    big_fission = eta_inverse(milnor_window(braid, big, k + 1, 2 * k))
    assert phi_class(big_fission, k + 1) == rhs
    assert d2_composition(lhs) == milnor_degree(braid, big, k + 1)
    assert MoritaInput(braid, big, k).conjugating_data() == inp.conjugating_data()
