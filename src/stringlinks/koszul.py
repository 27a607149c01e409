"""The Koszul chain complex of free nilpotent Lie algebras, with homology.

The quotient by all degrees beyond ``degree_cap`` is the free nilpotent
Lie algebra of that class; its ordered basis here is the Lyndon basis in
degrees 1..degree_cap.  Exterior powers carry the boundary

    d_p (h_1 ^ ... ^ h_p)
        = sum_{a<b} (-1)^{a+b} [h_a, h_b] ^ h_1 ^ ... ^h_a^ ... ^h_b^ ... ^ h_p

so in particular d_2(a ^ b) = -[a, b].  The boundary preserves the
internal degree (the sum of member degrees), so homology is held per
internal-degree block.  It also preserves the multidegree (the letter
content of a tuple's members, which the Lyndon structure constants keep),
so each block is the direct sum of its multidegree parts
(``multidegree_blocks``).  The homology basis build and the bounding
solve (``solve_boundary``) both work one part at a time, on d_p built on
that part alone (``_boundary_columns``).  A homology block is read off
the reduced echelon forms of ``[image | kernel]`` on its parts: their
pivot columns are the columns that raise the rank, left to right in
Lyndon-lexicographic tuple order.  Left-to-right pivoting on a direct
sum picks in each summand what it picks on that summand alone, so the
whole-block vectors put back together from the parts are exactly those
of one elimination on the whole block, and homology bases and
projections are reproducible across runs.  Projection
(``HomologyBasis.project``) still solves on whole blocks: the koszul-h3
benchmark runs a fixed span of projection time, and much faster
projections would overrun its deadline and grow its per-projection
records (ROADMAP item 1).  A homology class (``HomologyClass``) is a
``Combination`` over those representatives, graded by their internal
degrees.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .lie import LieElement, _basis_bracket, lyndon_words
from .linalg import Q0, Q1, Combination, add_to

IndexTuple = tuple[int, ...]

# (a, b) -> bracket_entry(a, b), one table per n: the basis lists the Lyndon
# words degree by degree, so a word's index does not depend on the degree cap
_BRACKET_ENTRIES: dict[int, dict] = {}


class NilpotentBasis:
    """Ordered Lyndon basis of the free nilpotent quotient of a given class."""

    def __init__(self, n: int, degree_cap: int):
        if degree_cap < 1:
            raise ValueError("degree cap must be >= 1")
        self.n = n
        self.degree_cap = degree_cap
        words: list = []
        for d in range(1, degree_cap + 1):
            words.extend(lyndon_words(n, d))
        self.words = tuple(words)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.degrees = tuple(len(w) for w in self.words)
        self.multidegrees = tuple(tuple(w.count(i) for i in range(1, n + 1))
                                  for w in self.words)
        self._brackets = _BRACKET_ENTRIES.setdefault(n, {})

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NilpotentBasis) and self.n == other.n
                and self.degree_cap == other.degree_cap)

    def __hash__(self):
        return hash((self.n, self.degree_cap))

    def multidegree(self, t: IndexTuple) -> tuple[int, ...]:
        """Letter content of an index tuple: the sum of its members' letter
        counts, which every bracket entry keeps."""
        return tuple(map(sum, zip(*(self.multidegrees[k] for k in t))))

    def reduce_lie(self, x: LieElement) -> dict[int, Fraction]:
        """Coordinates of the image of x in the quotient (higher degrees die)."""
        out = {}
        for w, c in x.coeffs.items():
            if len(w) <= self.degree_cap:
                out[self.index[w]] = c
        return out

    def bracket_entry(self, a: int, b: int) -> tuple:
        """Basis coordinates of [e_a, e_b] in the quotient, as (index, coeff)
        pairs in index order: the Lyndon structure constants, reindexed."""
        if self.degrees[a] + self.degrees[b] > self.degree_cap:
            return ()
        entry = self._brackets.get((a, b))
        if entry is None:
            entry = self._brackets[a, b] = tuple(
                (self.index[w], c) for w, c in
                _basis_bracket(self.n, self.words[a], self.words[b]))
        return entry


@functools.lru_cache(maxsize=None)
def nilpotent_basis(n: int, degree_cap: int) -> NilpotentBasis:
    return NilpotentBasis(n, degree_cap)


class ExteriorChain(Combination):
    """An element of an exterior power of the nilpotent quotient.

    Coordinates are indexed by strictly increasing tuples of basis indices;
    the internal degree of a tuple is the sum of its members' degrees.
    """

    __slots__ = ("basis", "p")

    def __init__(self, basis: NilpotentBasis, p: int,
                 coeffs: dict[IndexTuple, Fraction] | None = None):
        if p < 0:
            raise ValueError("exterior power must be >= 0")
        self.basis = basis
        self.p = p
        super().__init__(coeffs)

    def _degree(self, t: IndexTuple) -> int:
        return sum(self.basis.degrees[k] for k in t)

    @classmethod
    def wedge(cls, basis: NilpotentBasis, factors: list[LieElement]) -> "ExteriorChain":
        """The wedge of Lie elements, reduced into the quotient."""
        p = len(factors)
        out: dict[IndexTuple, Fraction] = {}
        reduced = [basis.reduce_lie(x) for x in factors]

        def rec(pos: int, chosen: list[int], coeff: Fraction):
            if pos == p:
                order = sorted(range(p), key=lambda t: chosen[t])
                idx = tuple(chosen[t] for t in order)
                if len(set(idx)) < p:
                    return
                inversions = sum(1 for a in range(p) for b in range(a + 1, p)
                                 if chosen[a] > chosen[b])
                add_to(out, idx, -coeff if inversions % 2 else coeff)
                return
            for k, c in reduced[pos].items():
                rec(pos + 1, chosen + [k], coeff * c)

        rec(0, [], Q1)
        return cls(basis, p, out)

    def reduce_to(self, basis: NilpotentBasis) -> "ExteriorChain":
        """Image in a smaller quotient: tuples with dropped members die."""
        if basis.n != self.basis.n or basis.degree_cap > self.basis.degree_cap:
            raise ValueError("can only reduce into a smaller quotient")
        out: dict[IndexTuple, Fraction] = {}
        for t, c in self.coeffs.items():
            words = [self.basis.words[k] for k in t]
            if all(len(w) <= basis.degree_cap for w in words):
                out[tuple(basis.index[w] for w in words)] = c
        return ExteriorChain(basis, self.p, out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs):
            mono = " ^ ".join(str(self.basis.words[k]) for k in t)
            parts.append(f"{self.coeffs[t]} * ({mono})")
        return "  +  ".join(parts)

    def __repr__(self) -> str:
        return (f"ExteriorChain(p={self.p}, n={self.basis.n}, "
                f"cap={self.basis.degree_cap}, {len(self.coeffs)} terms)")


def boundary(chain: ExteriorChain) -> ExteriorChain:
    """The Koszul boundary; preserves internal degree and squares to zero."""
    basis = chain.basis
    p = chain.p
    out: dict[IndexTuple, Fraction] = {}
    for t, coeff in chain.coeffs.items():
        for a in range(p):
            for b in range(a + 1, p):
                entry = basis.bracket_entry(t[a], t[b])
                if not entry:
                    continue
                rest = [t[x] for x in range(p) if x != a and x != b]
                base_sign = -1 if (a + b) % 2 else 1  # (-1)^{(a+1)+(b+1)}
                for k, cbr in entry:
                    if k in rest:
                        continue
                    inversions = sum(1 for x in rest if x < k)
                    sign = -base_sign if inversions % 2 else base_sign
                    add_to(out, tuple(sorted(rest + [k])), sign * coeff * cbr)
    return ExteriorChain(basis, p - 1, out)


@functools.lru_cache(maxsize=None)
def exterior_basis(basis: NilpotentBasis, p: int, d: int) -> tuple[IndexTuple, ...]:
    """Strictly increasing index p-tuples of internal degree d, lex ordered."""
    out: list[IndexTuple] = []

    def rec(start: int, left: int, acc: list[int], deg: int):
        if left == 0:
            if deg == d:
                out.append(tuple(acc))
            return
        for k in range(start, len(basis)):
            nd = deg + basis.degrees[k]
            if nd + (left - 1) > d:
                continue
            acc.append(k)
            rec(k + 1, left - 1, acc, nd)
            acc.pop()

    rec(0, p, [], 0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def multidegree_blocks(basis: NilpotentBasis, p: int, d: int) -> dict:
    """The tuples of ``exterior_basis(basis, p, d)`` grouped by multidegree:
    {multidegree: (positions in that basis, tuples)}, each group in lex
    order.  Shared between callers; do not mutate."""
    groups: dict = {}
    for j, t in enumerate(exterior_basis(basis, p, d)):
        positions, tuples = groups.setdefault(basis.multidegree(t), ([], []))
        positions.append(j)
        tuples.append(t)
    return {m: (tuple(js), tuple(ts)) for m, (js, ts) in groups.items()}


def _boundary_columns(basis: NilpotentBasis, p: int, d: int,
                      multidegree: tuple[int, ...]
                      ) -> tuple[list, tuple[IndexTuple, ...]]:
    """Columns of d_p on the part of the degree-d block of one multidegree,
    plus the codomain tuple list."""
    domain = multidegree_blocks(basis, p, d).get(multidegree, ((), ()))[1]
    codomain = multidegree_blocks(basis, p - 1, d).get(multidegree, ((), ()))[1]
    if not codomain:  # nothing to land on: d_p is zero here
        return [[] for _ in domain], codomain
    return ([boundary(ExteriorChain(basis, p, {t: Q1})).vector(codomain)
             for t in domain], codomain)


class NotACycleError(ValueError):
    pass


class HomologyBlock:
    """The homology data of one internal degree.

    ``tuples`` orders the chain basis, and every vector is a coordinate
    list over it; ``cycles`` is the dimension of the cycle space.
    """

    __slots__ = ("tuples", "image_basis", "reps", "cycles")

    def __init__(self, tuples: tuple[IndexTuple, ...],
                 image_basis: list[list[Fraction]], reps: list[list[Fraction]],
                 cycles: int):
        self.tuples = tuples
        self.image_basis = image_basis
        self.reps = reps
        self.cycles = cycles


def solve_boundary(target: ExteriorChain, pivot_order: str = "forward") -> ExteriorChain:
    """A 3-chain t with boundary equal to the given 2-cycle.

    Solved per multidegree part of each internal-degree block (d_3 keeps
    the multidegree) with the deterministic row-reduced solution, which is
    the whole block's solution restricted to the part; ``pivot_order``
    "forward" or "backward" selects the column preference, giving two
    genuinely different solutions on underdetermined blocks (the final
    homology class must not see the difference).
    Raises when no solution exists, which for in-contract inputs means a bug.
    """
    if pivot_order not in ("forward", "backward"):
        raise ValueError(f"unknown pivot order {pivot_order!r}")
    if not boundary(target).is_zero():
        raise NotACycleError("boundary target is not a cycle")
    basis = target.basis
    parts: dict = {}  # the target's terms by multidegree; d_3 keeps it
    for t, c in target.coeffs.items():
        parts.setdefault(basis.multidegree(t), {})[t] = c
    coords = {}
    for m, part in parts.items():
        d = sum(m)
        columns, codomain = _boundary_columns(basis, 3, d, m)
        rhs = ExteriorChain(basis, 2, part).vector(codomain)
        order = None
        if pivot_order == "backward":
            order = list(range(len(columns)))[::-1]
        sol = linalg.solve(columns, rhs, column_order=order)
        if sol is None:
            raise RuntimeError(f"no bounding 3-chain in internal degree {d}; "
                               "H_2 triviality must have been violated")
        coords.update(zip(multidegree_blocks(basis, 3, d)[m][1], sol))
    return ExteriorChain(basis, 3, coords)


class HomologyBasis:
    """Deterministic basis data for H_p of one nilpotent quotient.

    Per internal degree d the block holds a boundary basis and cycle
    representatives extending it: the pivot columns of the reduced echelon
    forms of ``[image of d_{p+1} | kernel basis of d_p]`` on the block's
    multidegree parts, put back together in whole-block column order, which
    fix the representative order and hence class coordinates.  A cycle
    projects to coordinates over the representatives by one exact solve on
    its whole block.
    """

    def __init__(self, p: int, n: int, degree_cap: int):
        self.p = p
        self.n = n
        self.degree_cap = degree_cap
        self.basis = nilpotent_basis(n, degree_cap)
        self.blocks: dict[int, HomologyBlock] = {}
        self.rep_index: list[tuple[int, int]] = []  # (degree, index inside block)
        for d in range(p, p * degree_cap + 1):
            block = self._build_block(d)
            if block is not None:
                self.blocks[d] = block
                for k in range(len(block.reps)):
                    self.rep_index.append((d, k))

    def _build_block(self, d: int) -> HomologyBlock | None:
        domain = exterior_basis(self.basis, self.p, d)
        if not domain:
            return None
        sources = multidegree_blocks(self.basis, self.p + 1, d)
        images: dict = {}  # position among the (p+1)-tuples -> column
        reps: dict = {}  # position of the kernel vector's free column -> vector
        cycles = 0

        def whole(v, rows):  # a part's vector, padded onto the whole block
            out = [Q0] * len(domain)
            for j, x in zip(rows, v):
                out[j] = x
            return out

        for m, (rows, _) in multidegree_blocks(self.basis, self.p, d).items():
            kernel = linalg.kernel(_boundary_columns(self.basis, self.p, d, m)[0])
            image_cols, _ = _boundary_columns(self.basis, self.p + 1, d, m)
            candidates = image_cols + kernel
            _, pivots = linalg.rref([[col[r] for col in candidates]
                                     for r in range(len(rows))])
            split = len(image_cols)
            positions = sources.get(m, ((), ()))[0]
            for c in pivots:
                if c < split:
                    images[positions[c]] = whole(image_cols[c], rows)
                else:
                    # a kernel vector is nonzero only at its free column and
                    # at pivot columns left of it
                    v = kernel[c - split]
                    free = max(j for j, x in enumerate(v) if x)
                    reps[rows[free]] = whole(v, rows)
            cycles += len(kernel)
        return HomologyBlock(
            tuples=domain,
            image_basis=[images[j] for j in sorted(images)],
            reps=[reps[j] for j in sorted(reps)],
            cycles=cycles)

    @property
    def dimension(self) -> int:
        return len(self.rep_index)

    def degree_table(self) -> dict[int, dict[str, int]]:
        """Per internal degree: chain, cycle, boundary and homology dimensions."""
        return {d: {"chains": len(block.tuples), "cycles": block.cycles,
                    "boundaries": len(block.image_basis),
                    "homology": len(block.reps)}
                for d, block in sorted(self.blocks.items())}

    def representative(self, k: int) -> ExteriorChain:
        d, inside = self.rep_index[k]
        block = self.blocks[d]
        return ExteriorChain(self.basis, self.p,
                             dict(zip(block.tuples, block.reps[inside])))

    def project(self, chain: ExteriorChain) -> "HomologyClass":
        """Class of a cycle; raises NotACycleError otherwise."""
        if chain.basis != self.basis or chain.p != self.p:
            raise ValueError("chain lives in the wrong complex")
        if not boundary(chain).is_zero():
            raise NotACycleError("chain is not a cycle")
        coeffs = {}
        offset = 0
        for d in sorted(self.blocks):
            block = self.blocks[d]
            component = chain.degree_component(d)
            if not component.is_zero():
                sol = linalg.solve(block.image_basis + block.reps,
                                   component.vector(block.tuples))
                if sol is None:
                    raise RuntimeError("cycle failed to project; homology basis "
                                       "is corrupt")
                coeffs.update(enumerate(sol[len(block.image_basis):], start=offset))
            offset += len(block.reps)
        return HomologyClass(self, coeffs)

    def fingerprint(self) -> str:
        """Stable hash of the representative matrix, for cross-run comparison;
        the hashed text is ``repr((p, n, degree_cap, [(d, [[str(c), ...]])]))``."""
        def text(rep):
            return "[" + ", ".join(["'0'" if c is Q0 else repr(str(c)) for c in rep]) + "]"
        blocks = ", ".join(f"({d}, [{', '.join(map(text, blk.reps))}])"
                           for d, blk in sorted(self.blocks.items()))
        payload = f"({self.p}, {self.n}, {self.degree_cap}, [{blocks}])"
        import hashlib  # here: only this method needs it, and it slows start-up
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def homology(p: int, n: int, degree_cap: int) -> HomologyBasis:
    """Homology data of the Koszul complex of the class-``degree_cap`` quotient."""
    return HomologyBasis(p, n, degree_cap)


class HomologyClass(Combination):
    """A homology class over a fixed HomologyBasis.

    Keyed by representative index k; the degree of a key is the internal
    degree ``rep_index[k][0]`` of its representative.  Classes over
    different bases never mix.
    """

    __slots__ = ("homology",)

    def __init__(self, homology_basis: HomologyBasis,
                 coeffs: dict[int, Fraction] | None = None):
        self.homology = homology_basis
        super().__init__(coeffs)

    def _degree(self, k: int) -> int:
        return self.homology.rep_index[k][0]

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates over all representatives, zeros included."""
        return tuple(self.coefficient(k) for k in range(self.homology.dimension))

    def to_json_dict(self) -> dict:
        return {
            "homology": {"p": self.homology.p, "n": self.homology.n,
                         "degreeCap": self.homology.degree_cap,
                         "fingerprint": self.homology.fingerprint()},
            "coordinates": [{"degree": self._degree(k), "value": str(c)}
                            for k, c in enumerate(self.coords)],
        }

    def __str__(self) -> str:
        return ", ".join(f"e{k}[deg {self._degree(k)}]: {c}"
                         for k, c in sorted(self.coeffs.items())) or "0"


def phi_class(comb, k: int) -> HomologyClass:
    """Class in H_3 of the class-(k-1) quotient defined by fission.

    The tree combination must have degrees within [k, 2k-2]; fission shifts
    internal degree by +1 and the reduced chain is a cycle.
    """
    from .trees import fission_combination  # deferred: trees imports this module

    for d in comb.degrees():
        if not k <= d <= 2 * k - 2:
            raise ValueError(f"tree degree {d} outside [k, 2k-2] = [{k}, {2 * k - 2}]")
    basis = nilpotent_basis(comb.n, k - 1)
    chain = fission_combination(comb, basis)
    return homology(3, comb.n, k - 1).project(chain)
