"""The degree-truncated tensor algebra K<<X_1,...,X_n>> over the rationals.

A series is a finite map from words over {1..n} (tuples of generator
indices) to nonzero Fractions, with all words of length <= trunc.  The
truncation degree is an explicit part of every value: operations on
series with different (n, trunc) raise instead of silently re-truncating;
``truncate`` exists for deliberate reductions.

All series arithmetic of the library runs through one kernel here, on
integer coefficient dicts grouped by degree: ``convolve`` is the one
truncated product, ``power_series`` the one loop summing a(m) v^m (behind
exp, log and inverse), and ``Substitution`` the one table of word images.
Products, exp, log and inverse run on one integer form of their operands
(the numerators over the lcm of the denominators, by degree) and form one
``Fraction`` per output term, not one per term pair.

The Hopf structure (generators primitive) has no code here, and this
module knows nothing of Lie structure: ``lie`` decides primitivity and
group-likeness by Lyndon extraction (Friedrichs' criterion) and holds
``bch``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Q0, Q1, Combination, add_to

Wd = tuple[int, ...]


def by_degree(coeffs: dict) -> dict[int, list]:
    """The terms of a coefficient dict grouped by word length."""
    buckets: dict[int, list] = {}
    for w, c in coeffs.items():
        buckets.setdefault(len(w), []).append((w, c))
    return buckets


def convolve(left: dict[int, list], right: dict[int, list], trunc: int,
             out: dict | None = None) -> dict:
    """The product of two series given as degree buckets, through degree trunc.

    Coefficients are ints or Fractions and must be nonzero; pairs whose
    degrees sum past trunc are skipped a bucket pair at a time.  The
    product is added into ``out`` when one is given.  Coefficients that
    cancel are dropped, so the result again holds no zeros.
    """
    out = {} if out is None else out
    get = out.get
    for d1, terms1 in left.items():
        for d2, terms2 in right.items():
            if d1 + d2 > trunc:
                continue
            for w1, c1 in terms1:
                for w2, c2 in terms2:
                    w = w1 + w2
                    v = get(w)
                    if v is None:
                        out[w] = c1 * c2
                    else:
                        v += c1 * c2
                        if v:
                            out[w] = v
                        else:
                            del out[w]
    return out


def power_series(buckets: dict[int, list], coefficients: list, trunc: int) -> dict:
    """sum_m coefficients[m] * v^m through degree trunc.

    v is the series given by ``buckets`` without its constant term, and
    ``coefficients`` lists a(0), ..., a(trunc), all nonzero from a(1) on.
    The powers stop early once they vanish.
    """
    right = {d: terms for d, terms in buckets.items() if d}
    out = {(): coefficients[0]} if coefficients[0] else {}
    power = {0: [((), 1)]}
    for m in range(1, trunc + 1):
        power = by_degree(convolve(power, right, trunc))
        if not power:
            break
        convolve(power, {0: [((), coefficients[m])]}, trunc, out)  # a(m) v^m
    return out


class TensorSeries(Combination):
    __slots__ = ("n", "trunc")

    def __init__(self, n: int, trunc: int, coeffs: dict[Wd, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one generator")
        if trunc < 1:
            raise ValueError("truncation degree must be >= 1")
        self.n = n
        self.trunc = trunc
        super().__init__(coeffs)

    def _space(self) -> tuple[int, int]:
        return self.n, self.trunc

    def _new(self, coeffs: dict) -> "TensorSeries":
        return TensorSeries(self.n, self.trunc, coeffs)

    _degree = staticmethod(len)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, trunc: int) -> "TensorSeries":
        return cls(n, trunc)

    @classmethod
    def one(cls, n: int, trunc: int) -> "TensorSeries":
        return cls(n, trunc, {(): Q1})

    @classmethod
    def generator(cls, n: int, trunc: int, i: int) -> "TensorSeries":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, trunc, {(i,): Q1})

    @classmethod
    def from_terms(cls, n: int, trunc: int, terms) -> "TensorSeries":
        out: dict[Wd, Fraction] = {}
        for word, c in terms:
            word = tuple(word)
            if len(word) > trunc:
                continue
            if any(not 1 <= g <= n for g in word):
                raise ValueError(f"word {word} has letters outside 1..{n}")
            add_to(out, word, Fraction(c))
        return cls(n, trunc, out)

    # -- basic structure ---------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Q0)

    def truncate(self, trunc: int) -> "TensorSeries":
        """Deliberate re-truncation to a lower (or equal) degree."""
        if trunc > self.trunc:
            raise ValueError("cannot truncate upwards")
        if trunc == self.trunc:
            return self  # series are immutable
        return TensorSeries(self.n, trunc,
                            {w: c for w, c in self.coeffs.items() if len(w) <= trunc})

    # -- arithmetic --------------------------------------------------------

    def _integral(self) -> tuple[int, dict[int, list[tuple[Wd, int]]]]:
        """(den, buckets): the numerators over den, the lcm of the denominators,
        grouped by degree.  Not cached: holding it costs memory and saves no time."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        return den, by_degree(
            {w: c.numerator * (den // c.denominator) for w, c in self.coeffs.items()})

    def _over(self, nums: dict[Wd, int], den: int) -> "TensorSeries":
        return TensorSeries(self.n, self.trunc,
                            {w: Fraction(v, den) for w, v in nums.items()})

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        (d1, left), (d2, right) = self._integral(), other._integral()
        return self._over(convolve(left, right, self.trunc), d1 * d2)

    def _power_series(self, coefficients: list[Fraction]) -> "TensorSeries":
        # with v = B / den, a(m) v^m = b(m) B^m / L for the integers
        # b(m) = a(m) L / den^m, L = lcm_m(q_m den^m), q_m the denominator of a(m)
        den, buckets = self._integral()
        scales = [a.denominator * den ** m for m, a in enumerate(coefficients)]
        lcm = math.lcm(*scales)
        b = [a.numerator * (lcm // q) for a, q in zip(coefficients, scales)]
        return self._over(power_series(buckets, b, self.trunc), lcm)

    def inverse(self) -> "TensorSeries":
        """Multiplicative inverse; requires constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("inverse requires constant term 1")
        return self._power_series([Fraction((-1) ** m) for m in range(self.trunc + 1)])

    def exp(self) -> "TensorSeries":
        """exp of a series with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        return self._power_series(
            [Fraction(1, math.factorial(m)) for m in range(self.trunc + 1)])

    def log(self) -> "TensorSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log requires constant term 1")
        return self._power_series(
            [Q0] + [Fraction((-1) ** (m - 1), m) for m in range(1, self.trunc + 1)])

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Wd, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: (len(t[0]), t[0]))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            mono = "1" if not w else " ".join(f"X{g}" for g in w)
            parts.append(f"{c} * {mono}")
        return "  +  ".join(parts)

    def __repr__(self) -> str:
        return f"TensorSeries(n={self.n}, trunc={self.trunc}, {len(self.coeffs)} terms)"


class Substitution:
    """The algebra endomorphism X_i |-> images[i-1], reusable across calls.

    The image of each word is kept in a memoised prefix table as integer
    numerators over one gcd-reduced denominator, and a new prefix costs
    one ``convolve`` with a generator image; the table persists for the
    lifetime of the object.  Applying the substitution to coefficients
    c_w is then one integer linear combination over the common
    denominator, for rational series (``__call__``) and integer Magnus
    images (``combine``) alike.
    """

    def __init__(self, images: list[TensorSeries]):
        if not images:
            raise ValueError("need at least one generator image")
        n, trunc = images[0].n, images[0].trunc
        if len(images) != n:
            raise ValueError("need one image per generator")
        for img in images:
            images[0]._check(img)
        self.n = n
        self.trunc = trunc
        self._generators = [img._integral() for img in images]
        self._table: dict[Wd, tuple[int, dict[Wd, int]]] = {(): (1, {(): 1})}

    def _entry(self, word: Wd) -> tuple[int, dict[Wd, int]]:
        """(den, nums) with the product of the images along word = nums / den."""
        cached = self._table.get(word)
        if cached is None:
            den, nums = self._entry(word[:-1])
            gen_den, gen_terms = self._generators[word[-1] - 1]
            nums = convolve(by_degree(nums), gen_terms, self.trunc)
            den *= gen_den
            g = math.gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {w: c // g for w, c in nums.items()}
            cached = self._table[word] = (den, nums)
        return cached

    def __call__(self, series: TensorSeries) -> TensorSeries:
        if series.n != self.n or series.trunc != self.trunc:
            raise ValueError("series lives in the wrong tensor algebra")
        return self.combine(series.coeffs)

    def combine(self, coeffs: dict) -> TensorSeries:
        """sum_w coeffs[w] * (image of w), for int or Fraction coefficients."""
        terms = [(c, self._entry(w)) for w, c in coeffs.items()]
        lcm = math.lcm(*(c.denominator * den for c, (den, _) in terms))
        acc: dict[Wd, int] = {}
        for c, (den, nums) in terms:
            f = c.numerator * (lcm // (c.denominator * den))
            for w, num in nums.items():
                v = acc.get(w, 0) + f * num
                if v:
                    acc[w] = v
                else:
                    del acc[w]
        return TensorSeries(self.n, self.trunc,
                            {w: Fraction(v, lcm) for w, v in acc.items()})
