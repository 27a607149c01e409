"""The graded free Lie algebra on X_1..X_n in Lyndon coordinates.

Basis convention: for each degree d the Lyndon words of length d over the
alphabet {1..n}, ordered lexicographically, with the left-standard
bracketing beta(w) = [beta(u), beta(v)] where w = uv is the standard
factorisation (v the lexicographically smallest proper suffix).

The tensor expansion of beta(w) is triangular: it equals w plus a
combination of lexicographically larger words of the same length, with
coefficient 1 on w itself.  Each is one degree bucket of integer word
codes, the format of ``tensor``, built as ab - ba by ``convolve``.
``LieElement.from_tensor`` exploits this to convert any primitive series
back to Lyndon coordinates by repeatedly stripping the smallest remaining
code; a non-Lyndon minimal word proves the input was not a Lie element.
The same extraction forms the one table of structure constants
(``_basis_bracket``), read by ``LieElement.bracket`` and the Koszul boundary.

This extraction is the library's only test of Lie-ness and, through
Friedrichs' criterion (over Q, a series with constant term 1 is
group-like exactly when its log is a Lie series), of group-likeness:
``is_primitive``, ``is_grouplike``, ``bch`` and ``conjugating_element``
all decide through it.

``conjugating_element`` solves conjugacy to exp(X_i) with no elimination:
one closed-form sweep over the degrees of the associative conjugator.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction

from .linalg import Q1, Combination, add_to
from .tensor import TensorSeries, Wd, _words, convolve


# -- Lyndon words ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def lyndon_words(n: int, d: int) -> tuple[Wd, ...]:
    """All Lyndon words of length d over {1..n}, lexicographically ordered."""
    if n < 1:
        raise ValueError("need at least one generator")
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    w = [0]
    while w:
        w[-1] += 1
        m = len(w)
        if m == d:
            out.append(tuple(w))
        while len(w) < d:
            w.append(w[-m])
        while w and w[-1] == n:
            w.pop()
    return tuple(sorted(out))


def is_lyndon(w: Wd) -> bool:
    return len(w) > 0 and all(w < w[k:] + w[:k] for k in range(1, len(w)))


def moebius(m: int) -> int:
    r, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            r = -r
        d += 1
    return -r if m > 1 else r


def witt_dim(n: int, d: int) -> int:
    """Dimension of the degree-d part of the free Lie algebra on n generators."""
    total = sum(moebius(d // e) * n**e for e in range(1, d + 1) if d % e == 0)
    return total // d


def standard_factorization(w: Wd) -> tuple[Wd, Wd]:
    """w = u v with v the lexicographically smallest proper suffix."""
    if len(w) < 2:
        raise ValueError("letters do not factor")
    k = min(range(1, len(w)), key=lambda i: w[i:])
    return w[:k], w[k:]


def bracketing(w: Wd):
    """Nested-tuple form of the standard bracketing of a Lyndon word."""
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (bracketing(u), bracketing(v))


def bracketing_str(w: Wd) -> str:
    def fmt(t):
        if isinstance(t, int):
            return f"X{t}"
        return f"[{fmt(t[0])},{fmt(t[1])}]"
    return fmt(bracketing(w))


# -- homogeneous tensor expansions of basis elements -------------------------

def _commutator(n: int, u: Wd, v: Wd) -> dict:
    """The degree buckets of [beta(u), beta(v)] = ab - ba, by word code."""
    a, b = {len(u): _lyndon_tensor(n, u)}, {len(v): _lyndon_tensor(n, v)}
    d = len(u) + len(v)
    return convolve({len(v): {w: -c for w, c in b[len(v)].items()}}, a, n, d,
                    convolve(a, b, n, d))


@functools.lru_cache(maxsize=None)
def _lyndon_tensor(n: int, w: Wd) -> dict[int, int]:
    """The degree-len(w) bucket of the standard bracketing of a Lyndon word.

    Its coefficients are integers: all the basis-level machinery here is
    exact integer arithmetic, and rationals enter only through coordinates.
    """
    if len(w) == 1:
        return {w[0] - 1: 1}
    return _commutator(n, *standard_factorization(w))[len(w)]


@functools.lru_cache(maxsize=None)
def _basis_bracket(n: int, wa: Wd, wb: Wd) -> tuple[tuple[Wd, int], ...]:
    """Lyndon coordinates of [beta(wa), beta(wb)], in basis order; integer by
    triangularity.  The one table of the structure constants."""
    return tuple(_extract_lyndon(n, _commutator(n, wa, wb)).items())


def _extract_lyndon(n: int, buckets: dict) -> dict:
    """Triangular extraction of Lyndon coordinates from a Lie tensor.

    Works over any exact coefficient domain (int or Fraction) on degree
    buckets of word codes: the triangular system is unipotent, so no
    division ever happens.  Codes leave a heap in (degree, code) order,
    which is (length, word) order; stripping a word only adds larger words
    of its degree, so each popped code that is still in the residue is its
    smallest one, and a code is pushed only when it enters the residue.
    """
    residue = {d: dict(bucket) for d, bucket in buckets.items()}
    heap = [(d, code) for d, bucket in residue.items() for code in bucket]
    heapq.heapify(heap)
    coords: dict = {}
    while heap:
        d, code = heapq.heappop(heap)
        bucket = residue[d]
        c = bucket.get(code)
        if c is None:
            continue  # stale: the word cancelled out after it was pushed
        w = _words(n, d)[code]
        if not is_lyndon(w):
            raise ValueError(f"series is not a Lie element (stray word {w})")
        coords[w] = c
        for word, cw in _lyndon_tensor(n, w).items():
            if word not in bucket:
                heapq.heappush(heap, (d, word))
            val = bucket.get(word, 0) - c * cw
            if val:
                bucket[word] = val
            else:
                bucket.pop(word, None)
    return coords


def is_primitive(series: TensorSeries) -> bool:
    """Whether series is a Lie element: constant term 0 and a complete extraction."""
    try:
        LieElement.from_tensor(series)
    except ValueError:
        return False
    return True


def is_grouplike(series: TensorSeries) -> bool:
    """Friedrichs' criterion: constant term 1 and a Lie series as log."""
    return series.constant_term() == 1 and is_primitive(series.log())


def bch(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """log(exp(a) exp(b)) for primitive a, b; the result is again primitive."""
    if not is_primitive(a) or not is_primitive(b):
        raise ValueError("bch requires primitive arguments")
    return (a.exp() * b.exp()).log()


# -- Lie elements -------------------------------------------------------------

class LieElement(Combination):
    """A finitely supported element of the graded free Lie algebra."""

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs: dict[Wd, Fraction] | None = None):
        self.n = n
        super().__init__(coeffs)

    _degree = staticmethod(len)

    @classmethod
    def generator(cls, n: int, i: int) -> "LieElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, {(i,): Q1})

    @classmethod
    def from_tensor(cls, series: TensorSeries) -> "LieElement":
        """Lyndon coordinates of a primitive series (exact round trip)."""
        if series.constant_term() != 0:
            raise ValueError("not primitive: nonzero constant term")
        den, nums = series._integral()
        return cls(series.n, {w: Fraction(c, den) for w, c in
                              _extract_lyndon(series.n, nums).items()})

    def bracket(self, other: "LieElement") -> "LieElement":
        """[self, other], by the structure constants of the Lyndon basis."""
        self._check(other)
        out: dict[Wd, Fraction] = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                c = ca * cb
                for w, cw in _basis_bracket(self.n, wa, wb):
                    add_to(out, w, c * cw)
        return LieElement(self.n, out)

    def to_tensor(self, trunc: int) -> TensorSeries:
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        out: dict = {}
        for w, c in self.coeffs.items():
            if len(w) <= trunc:  # integer numerators over den, by word code
                convolve({0: {0: c.numerator * (den // c.denominator)}},
                         {len(w): _lyndon_tensor(self.n, w)}, self.n, trunc, out)
        return TensorSeries._over(self.n, trunc, den, out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return "\n".join(f"{c} * {bracketing_str(w)}" for w, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"LieElement(n={self.n}, {len(self.coeffs)} terms)"


# -- H (x) L: carriers of invariant values ------------------------------------

@functools.lru_cache(maxsize=None)
def h_tensor_l_basis(n: int, d: int) -> tuple[tuple[int, Wd], ...]:
    """The keys (i, w) of H (x) L_d: generator index, then Lyndon word."""
    return tuple((i, w) for i in range(1, n + 1) for w in lyndon_words(n, d))


class HTensorLie(Combination):
    """An element sum_i X_i (x) Y_i of H tensor the free Lie algebra.

    Keyed by pairs (i, w): the coefficient of X_i (x) beta(w).
    """

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs: dict[tuple[int, Wd], Fraction] | None = None):
        self.n = n
        super().__init__(coeffs)

    @staticmethod
    def _degree(key: tuple[int, Wd]) -> int:
        return len(key[1])

    @classmethod
    def from_entries(cls, n: int, entries) -> "HTensorLie":
        """sum_i X_i (x) entries[i-1], from one Lie partner per generator."""
        if len(entries) != n:
            raise ValueError("need one Lie partner per generator")
        coeffs = {}
        for i, y in enumerate(entries, start=1):
            if y.n != n:
                raise ValueError("entry rank mismatch")
            coeffs.update(((i, w), c) for w, c in y.coeffs.items())
        return cls(n, coeffs)

    @property
    def entries(self) -> tuple[LieElement, ...]:
        """The Lie partners Y_1..Y_n."""
        parts: list[dict] = [{} for _ in range(self.n)]
        for (i, w), c in self.coeffs.items():
            parts[i - 1][w] = c
        return tuple(LieElement(self.n, part) for part in parts)

    def bracket_map(self) -> LieElement:
        """sum_i [X_i, Y_i], the value of the bracket contraction."""
        out = LieElement.zero(self.n)
        for i, y in enumerate(self.entries, start=1):
            out = out + LieElement.generator(self.n, i).bracket(y)
        return out

    def in_bracket_kernel(self) -> bool:
        return self.bracket_map().is_zero()

    def coordinates(self, d: int) -> list[Fraction]:
        """Coordinates over ``h_tensor_l_basis(n, d)``; other degrees raise ValueError."""
        return self.vector(h_tensor_l_basis(self.n, d))

    def sorted_terms(self) -> list[tuple[tuple[int, Wd], Fraction]]:
        return sorted(self.coeffs.items(),
                      key=lambda t: (t[0][0], len(t[0][1]), t[0][1]))

    def to_json_entries(self) -> list[dict]:
        return [{"i": i, "lyndonWord": list(w), "bracketing": bracketing_str(w),
                 "coefficient": str(c)} for (i, w), c in self.sorted_terms()]

    def __str__(self) -> str:
        return "\n".join(f"X{i} (x) {c} * {bracketing_str(w)}"
                         for (i, w), c in self.sorted_terms()) or "0"


def bracket_map_matrix(n: int, d: int) -> list[list[Fraction]]:
    """Columns of H (x) L_d -> L_{d+1}: column (i, w), in ``h_tensor_l_basis``
    order, is [X_i, w] over the Lyndon words of degree d + 1."""
    codomain = lyndon_words(n, d + 1)
    return [LieElement.generator(n, i).bracket(LieElement(n, {w: Q1})).vector(codomain)
            for i, w in h_tensor_l_basis(n, d)]


def d_dimension(n: int, d: int) -> int:
    """dim of the kernel of the bracket map H (x) L_d -> L_{d+1}, which is onto."""
    return n * witt_dim(n, d) - witt_dim(n, d + 1)


def conjugating_element(series: TensorSeries, i: int) -> LieElement:
    """The normalised Y with exp(Y) exp(X_i) exp(-Y) = series through trunc.

    Solved for U = exp(Y) in one sweep with no elimination: with V = series
    and E = exp(X_i), degree d + 1 of V U = U E reads [X_i, U_d] = r_d,
    r_d = sum_{a >= 2} (U_{d+1-a} E_a - V_a U_{d+1-a}).  The centralizer of
    X_i in the free associative algebra is K[X_i] (Bergman, Trans. AMS 137,
    1969), so U_d is unique without an X_i^d term, and telescoping gives
    U_d(a X_i^k) = sum_{j=1}^{k+1} r_d(X_i^j a X_i^{k+1-j}) for a nonempty
    word a not ending in X_i; each degree is then checked exactly.  Y = log U
    is read by the Lyndon extraction, which fails unless U is group-like.  Y
    is determined through degree trunc - 1.  Raises ValueError unless the
    series is a group-like conjugate of exp(X_i).
    """
    n, trunc = series.n, series.trunc
    den, nums = series._integral()
    x = i - 1  # the code of X_i
    if nums.get(0) != {0: den} or nums.get(1) != {x: den}:
        raise ValueError(f"target is not conjugate to X{i}: degree-1 part differs")
    powers = [x * (n ** a - 1) // max(n - 1, 1) for a in range(trunc + 1)]  # X_i^a
    u = [(1, {0: 1})]  # U_b as (denominator, integer numerators by word code)
    for d in range(1, trunc):
        lead = n ** (d - 1)  # the place value of the first letter of a degree-d word
        lcm = math.lcm(*(u_den * math.lcm(den, math.factorial(d + 1 - b))
                         for b, (u_den, _) in enumerate(u)))
        acc: dict = {}
        for b, (u_den, ub) in enumerate(u):
            a = d + 1 - b
            convolve({b: ub}, {a: {powers[a]: lcm // (u_den * math.factorial(a))}},
                     n, trunc, acc)
            scale = -(lcm // (u_den * den))
            convolve({a: nums.get(a, {})}, {b: {w: scale * c for w, c in ub.items()}},
                     n, trunc, acc)
        r = acc.get(d + 1, {})
        # a word X_i^J c X_i^M of r_d (c nonempty) feeds the J words
        # X_i^p c X_i^(J+M-1-p), p < J: drop one X_i in front, then turn them over
        sol: dict = {}
        for v, c in r.items():
            w = v - x * lead * n
            if v == powers[d + 1] or not 0 <= w < lead * n:
                continue
            add_to(sol, w, c)
            while w // lead == x:
                w = (w - x * lead) * n + x
                add_to(sol, w, c)
        bracket = convolve({1: {x: 1}}, {d: sol}, n, trunc)  # [X_i, U_d]
        convolve({d: sol}, {1: {x: -1}}, n, trunc, bracket)
        if bracket.get(d + 1, {}) != r:
            raise ValueError(f"target is not conjugate to X{i}: "
                             f"obstruction in degree {d + 1}")
        g = math.gcd(lcm, *sol.values())
        u.append((lcm // g, {w: c // g for w, c in sol.items()}))
    common = math.lcm(*(u_den for u_den, _ in u))
    buckets = {b: {w: c * (common // u_den) for w, c in ub.items()}
               for b, (u_den, ub) in enumerate(u) if ub}
    try:
        return LieElement.from_tensor(
            TensorSeries._over(n, max(trunc - 1, 1), common, buckets).log())
    except ValueError as exc:
        raise ValueError(f"target is not conjugate to X{i}: "
                         "the conjugator is not group-like") from exc
