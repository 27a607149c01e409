"""The H3-valued refinement of the truncated Milnor invariant.

For an input L in the (k+1)-st Milnor filtration level the conjugating
data Y_i(L) start in degree k+1.  The 2-chain

    sigma_L = sum_i sum_{l=k+1}^{2k} X_i ^ Y_i^(l)(L)

over the class-(2k+1) quotient is a cycle (its boundary is the per-degree
bracket contraction, which speciality kills).  The paper's sum runs to
l = 2k+1, but that top term has internal degree 2k+2: it is a cycle on its
own (its bracket lies beyond the class-(2k+1) quotient) and it dies in the
reduction to the class-2k quotient, so nothing below reads it.  That
reduction bounds; a solution t_L of  d_3 t = {sigma_L}
(``koszul.solve_boundary``, one solve per multidegree part) reduces to
a 3-cycle in the class-k quotient whose homology class is the refined
invariant.  The class does not depend on the choice of t_L, is additive
under stacking, agrees with the fission route through tree diagrams, and
its composition with the degree projection recovers the degree-(k+1)
Milnor invariant; every one of these is an acceptance property.

Degree bookkeeping: Y_i must be exact through degree 2k, so the
underlying special expansion needs truncation degree at least 2k+1 (one
more than the top Y degree, since the top component of a conjugator needs
one degree of headroom).
"""

from __future__ import annotations

from . import linalg
from .expansions import Expansion
from .koszul import (ExteriorChain, HomologyClass, boundary, homology,
                     nilpotent_basis, phi_class, solve_boundary)
from .lie import HTensorLie, LieElement
from .milnor import milnor_window
from .linalg import Q1
from .trees import TreeCombination, enumerate_trees, eta_combination, eta_inverse
from .words import Braid, LongitudeTuple


def required_truncation(k: int) -> int:
    """Smallest expansion truncation supporting the full degree-k pipeline."""
    return 2 * k + 1


class MoritaInput:
    """A filtration-(k+1) input together with the expansion to use."""

    __slots__ = ("data", "theta", "k")

    def __init__(self, data: "Braid | LongitudeTuple", theta: Expansion, k: int):
        self.data = data
        self.theta = theta
        self.k = k
        if self.k < 1:
            raise ValueError("filtration parameter k must be >= 1")
        if self.theta.trunc < required_truncation(self.k):
            raise ValueError(
                f"expansion truncation {self.theta.trunc} too small; the "
                f"degree-{self.k} pipeline needs {required_truncation(self.k)}")

    def conjugating_data(self) -> HTensorLie:
        return milnor_window(self.data, self.theta, self.k + 1, 2 * self.k)


def sigma(inp: MoritaInput) -> ExteriorChain:
    """The 2-cycle sum_i sum_{l=k+1}^{2k} X_i ^ Y_i^(l) over the class-(2k+1)
    quotient.  The paper's top term l = 2k+1 is left out: it has internal
    degree 2k+2, so its boundary vanishes in this quotient and it dies in
    the reduction to the class-2k quotient that ``morita_milnor`` bounds."""
    k = inp.k
    value = inp.conjugating_data()
    basis = nilpotent_basis(inp.theta.n, 2 * k + 1)
    chain = ExteriorChain.zero(basis, 2)
    # Y_i lives in degrees k+1..2k, so one wedge per i sums over l
    for i, y in enumerate(value.entries, start=1):
        chain = chain + ExteriorChain.wedge(basis, [LieElement.generator(basis.n, i), y])
    defect = boundary(chain)
    if not defect.is_zero():
        raise RuntimeError("sigma is not a cycle; speciality of the Artin "
                           "data must have been violated")
    return chain


def morita_milnor(inp: MoritaInput, pivot_order: str = "forward") -> HomologyClass:
    """The refined invariant in H_3 of the class-k quotient."""
    k = inp.k
    n = inp.theta.n
    full_sigma = sigma(inp)
    mid_basis = nilpotent_basis(n, 2 * k)
    reduced_sigma = full_sigma.reduce_to(mid_basis)
    t_chain = solve_boundary(reduced_sigma, pivot_order=pivot_order)
    small_basis = nilpotent_basis(n, k)
    reduced_t = t_chain.reduce_to(small_basis)
    return homology(3, n, k).project(reduced_t)


def diagram_sides(inp: MoritaInput) -> tuple[HomologyClass, HomologyClass]:
    """Both routes to H_3: the boundary-solving one and the fission one.

    The fission route sends the truncated invariant (degrees k+1..2k)
    through eta-inversion into tree diagrams and applies the fission map.
    """
    trees = eta_inverse(inp.conjugating_data())
    return morita_milnor(inp), phi_class(trees, inp.k + 1)


def verify_commutative_diagram(inp: MoritaInput) -> bool:
    """Exact equality of the two homology classes."""
    lhs, rhs = diagram_sides(inp)
    return lhs == rhs


def d2_composition(cls: HomologyClass) -> HTensorLie:
    """The spectral-sequence differential applied to a degree-k refined class.

    Realised as eta of the lowest tree-degree component of the fission
    preimage: for classes of morita_milnor this recovers the degree-(k+1)
    Milnor invariant.  The preimage is only defined modulo the common
    kernel of fission and eta on the enumerated span, which eta then
    kills, so the output is well defined.
    """
    cap = cls.homology.degree_cap
    if cls.homology.p != 3:
        raise ValueError("d2 composition expects an H_3 class")
    k_plus_1 = cap + 1
    n = cls.homology.n
    span = []
    for l in range(k_plus_1, 2 * k_plus_1 - 1):
        span.extend(enumerate_trees(n, l))
    columns = [phi_class(TreeCombination(n, {t: Q1}), k_plus_1).coords for t in span]
    sol = linalg.solve(columns, cls.coords)
    if sol is None:
        raise RuntimeError("class is outside the fission image; the span "
                           "rank must be deficient")
    preimage = TreeCombination(n, dict(zip(span, sol)))
    return eta_combination(preimage.degree_component(k_plus_1))
