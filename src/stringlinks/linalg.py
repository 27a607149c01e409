"""Exact linear algebra over the rationals: sparse combinations and dense matrices.

Every value the library computes is a finite rational combination over
some basis: tensor words (``TensorSeries``), Lyndon words
(``LieElement``), (generator, Lyndon word) pairs (``HTensorLie``),
exterior tuples (``ExteriorChain``), tree diagrams (``TreeCombination``)
and homology representatives (``HomologyClass``).  ``Combination`` holds
the zero-free arithmetic they share and derives each value's space, zero
and same-space constructor from the subclass's constructor signature
``(*space, coeffs=None)``: a subclass supplies only that constructor, the
grading ``_degree`` and, where it prints in another order, its own
``sorted_terms``.  ``add_to`` is the one accumulation step, and
``Combination.vector`` is the one reader of a dense coordinate list over
an ordered basis; ``dict(zip(keys, coordinates))`` through the
zero-dropping constructor is the way back.

Every linear system the library meets (the bracket contraction behind
special expansions and conjugators, Koszul homology, boundary solving,
eta-inversion) is given by its columns, one vector per unknown, and goes
through one exact solve (``solve``) or one kernel (``kernel``); both run
on the one reduced row echelon loop (``rref``).  ``rref`` eliminates on
integer rows kept primitive and forms ``Fraction``s only when it normalises
the pivot rows on return; the reduced row echelon form under a fixed pivot
rule is unique, so its output is exactly that of Fraction elimination.
Everything is Fraction-exact; no floats are allowed anywhere in the
library.  Sizes stay at desk scale (a few hundred rows), so there is no
need for sparse formats or pivoting heuristics beyond determinism.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def add_to(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum cancels (no zeros are kept)."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class Combination:
    """A finite combination of basis keys with nonzero exact coefficients.

    Values are immutable.  A subclass supplies its constructor
    ``(*space, coeffs=None)``, whose space arguments it keeps in its own
    ``__slots__`` (values of different spaces never mix), and grades its
    keys (``_degree``); building values of the same space (``_new``,
    ``zero``), the arithmetic, equality, hashing, degree filters and the
    default print order are defined here once.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        if coeffs and not all(coeffs.values()):
            coeffs = {k: c for k, c in coeffs.items() if c}
        self.coeffs = {} if coeffs is None else coeffs

    def __init_subclass__(cls):
        if "_space" not in vars(cls):  # read by a getter formed once per class
            get = operator.attrgetter(*cls.__slots__)
            cls._space = ((lambda self: (get(self),)) if len(cls.__slots__) == 1
                          else lambda self: get(self))

    @classmethod
    def zero(cls, *space):
        return cls(*space)

    def _new(self, coeffs: dict):
        return type(self)(*self._space(), coeffs)

    def _degree(self, key) -> int:
        raise NotImplementedError

    def _check(self, other: "Combination") -> None:
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"mixed spaces: {self!r} and {other!r}")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._space() == other._space()
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self._space(), frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> Fraction:
        return self.coeffs.get(key, Q0)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            add_to(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        return self._new({k: s * c for k, c in self.coeffs.items()} if s else {})

    def degree_range(self, lo: int, hi: int):
        """The terms of degrees lo..hi inclusive."""
        return self._new({k: c for k, c in self.coeffs.items()
                          if lo <= self._degree(k) <= hi})

    def degree_component(self, d: int):
        return self.degree_range(d, d)

    def degrees(self) -> list[int]:
        return sorted({self._degree(k) for k in self.coeffs})

    def min_degree(self) -> int | None:
        """Smallest degree with a nonzero term, or None for zero."""
        return min(map(self._degree, self.coeffs), default=None)

    def max_degree(self) -> int | None:
        return max(map(self._degree, self.coeffs), default=None)

    def sorted_terms(self) -> list:
        """Terms by degree, then key."""
        return sorted(self.coeffs.items(), key=lambda t: (self._degree(t[0]), t[0]))

    def vector(self, keys: tuple) -> Vector:
        """Coefficients over an ordered key tuple; a term outside it raises ValueError."""
        index = _positions(keys)
        out = [Q0] * len(keys)
        for k, c in self.coeffs.items():
            j = index.get(k)
            if j is None:
                raise ValueError(f"term {k!r} lies outside the given basis")
            out[j] = c
        return out


@functools.lru_cache(maxsize=None)
def _positions(keys: tuple) -> dict:
    """Position of each key in an ordered basis, built once per basis."""
    return {k: j for j, k in enumerate(keys)}


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivots are chosen left to right, first nonzero row wins: the result is
    deterministic for a given input, which downstream code relies on for
    reproducible basis choices.

    Fraction-free, after Bareiss (Math. Comp. 22, 1968): rows are scaled
    to integers by the lcm of their denominators, a pivot p clears an entry
    f as (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), and each new row is
    divided by its gcd, so rows stay integer and primitive.  Every row is a
    nonzero multiple of the row Fraction elimination would hold, so the
    pivots agree, and the reduced form, being unique, is the same entry for
    entry; ``Fraction``s are formed only when the pivot rows are normalised
    on return.
    """
    m = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, top)]
                h = math.gcd(*row)
                m[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for k, row in enumerate(m):
        p = row[pivots[k]] if k < r else 1
        m[k] = [Fraction(x, p) if x else Q0 for x in row]
    return m, pivots


def solve(columns: list[Vector], target: Vector,
          column_order: list[int] | None = None) -> Vector | None:
    """Coefficients x with sum_j x_j columns[j] = target, or None if inconsistent.

    Free variables are set to zero, so the solution is the deterministic
    minimal-support one for the given pivot preference.  ``column_order``
    permutes the pivot preference (still returning coordinates in the
    original order); two different orders give two genuinely different
    particular solutions when the system is underdetermined.
    """
    width = len(columns)
    order = range(width) if column_order is None else column_order
    aug = [[columns[c][r] for c in order] + [b] for r, b in enumerate(target)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] == width:
        return None
    x = [Q0] * width
    for k, p in enumerate(pivots):
        x[order[p]] = red[k][width]
    return x


def kernel(columns: list[Vector]) -> list[Vector]:
    """Deterministic basis of the vectors x with sum_j x_j columns[j] = 0."""
    width = len(columns)
    height = len(columns[0]) if columns else 0
    red, pivots = rref([[col[r] for col in columns] for r in range(height)])
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [Q0] * width
        v[free] = Q1
        for k, p in enumerate(pivots):
            v[p] = -red[k][free]
        basis.append(v)
    return basis
