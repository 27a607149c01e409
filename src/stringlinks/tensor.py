"""The degree-truncated tensor algebra K<<X_1,...,X_n>> over the rationals.

A series is a finite map from words over {1..n} (tuples of generator
indices) to nonzero Fractions, with all words of length <= trunc.  The
truncation degree is an explicit part of every value: operations on
series with different (n, trunc) raise instead of silently re-truncating;
``truncate`` exists for deliberate reductions.

All series arithmetic of the library runs through one kernel here, on
integer-coded words: a word of length d is its base-n code (letter g is
digit g - 1) in the degree bucket {d: {code: coefficient}}, so
concatenation is code1 * n**d2 + code2 (``encode`` and ``decode`` convert).
``convolve`` is the one truncated product, ``power_series`` the one loop
summing a(m) v^m (behind exp, log and inverse), and ``Substitution`` the
one table of word images.  Their results are held as gcd-reduced integer
numerators over the lcm of the reduced denominators (``_integral``), and
their ``Fraction``s are formed only when ``coeffs`` is first read.

The Hopf structure (generators primitive) has no code here, and this
module knows nothing of Lie structure: ``lie`` decides primitivity and
group-likeness by Lyndon extraction (Friedrichs' criterion) and holds
``bch``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .linalg import Q0, Q1, Combination, add_to

Wd = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _words(n: int, d: int) -> tuple[Wd, ...]:
    """The words of length d over {1..n}, indexed by their code; built on first use."""
    return tuple(itertools.product(range(1, n + 1), repeat=d))


@functools.lru_cache(maxsize=None)
def _codes(n: int, d: int) -> dict[Wd, int]:
    return {w: code for code, w in enumerate(_words(n, d))}


def encode(coeffs: dict, n: int) -> dict:
    """Word-keyed coefficients as degree buckets of word codes."""
    out: dict = {}
    for w, c in coeffs.items():
        out.setdefault(len(w), {})[_codes(n, len(w))[w]] = c
    return out


def decode(buckets: dict, n: int) -> dict:
    """Degree buckets of word codes as word-keyed coefficients."""
    return {w: c for d, bucket in buckets.items()
            for w, c in zip(map(_words(n, d).__getitem__, bucket), bucket.values())}


def convolve(left: dict, right: dict, n: int, trunc: int, out: dict | None = None) -> dict:
    """The product of two series given as degree buckets, through degree trunc.

    Coefficients are ints or Fractions and must be nonzero; pairs whose
    degrees sum past trunc are skipped a bucket pair at a time.  The
    product is added into ``out`` when one is given.  Coefficients that
    cancel are dropped, and so are buckets left empty, so the result again
    holds no zeros.
    """
    out = {} if out is None else out
    for d1, terms1 in left.items():
        for d2, terms2 in right.items():
            d = d1 + d2
            if d > trunc:
                continue
            bucket = out.setdefault(d, {})
            get = bucket.get
            shift = n ** d2
            for w1, c1 in terms1.items():
                base = w1 * shift
                for w2, c2 in terms2.items():
                    w = base + w2
                    v = get(w)
                    if v is None:
                        bucket[w] = c1 * c2
                    else:
                        v += c1 * c2
                        if v:
                            bucket[w] = v
                        else:
                            del bucket[w]
    for d in [d for d, bucket in out.items() if not bucket]:
        del out[d]
    return out


def power_series(buckets: dict, coefficients: list, n: int, trunc: int) -> dict:
    """sum_m coefficients[m] * v^m through degree trunc, as degree buckets.

    v is the series given by ``buckets`` without its constant term, and
    ``coefficients`` lists a(0), ..., a(trunc), all nonzero from a(1) on.
    The powers stop early once they vanish.
    """
    right = {d: terms for d, terms in buckets.items() if d}
    out = {0: {0: coefficients[0]}} if coefficients[0] else {}
    power = {0: {0: 1}}
    for m in range(1, trunc + 1):
        power = convolve(power, right, n, trunc)
        if not power:
            break
        convolve({0: {0: coefficients[m]}}, power, n, trunc, out)  # a(m) v^m
    return out


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """nums / den with the common factor of den and every numerator removed."""
    g = 1 if den == 1 else math.gcd(den, *(v for b in nums.values() for v in b.values()))
    if g == 1:
        return den, nums
    return den // g, {d: {w: v // g for w, v in b.items()} for d, b in nums.items()}


class TensorSeries(Combination):
    """A series, held as Fractions (``coeffs``), integers over a denominator
    (``_integral``) or both; a missing form is formed when first asked for."""

    __slots__ = ("n", "trunc", "_den", "_nums")

    def __init__(self, n: int, trunc: int, coeffs: dict[Wd, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one generator")
        if trunc < 1:
            raise ValueError("truncation degree must be >= 1")
        self.n = n
        self.trunc = trunc
        self._nums = None
        super().__init__(coeffs)

    @classmethod
    def _over(cls, n: int, trunc: int, den: int, nums: dict) -> "TensorSeries":
        """The series nums / den, for zero-free integer degree buckets nums."""
        series = cls.__new__(cls)
        series.n, series.trunc = n, trunc
        series._den, series._nums = _reduced(den, nums)
        return series

    def __getattr__(self, name: str):
        # reached only while the ``coeffs`` slot is unset: form the Fractions
        if name != "coeffs":
            raise AttributeError(name)
        den = self._den
        self.coeffs = {w: Fraction(v, den) for w, v in decode(self._nums, self.n).items()}
        return self.coeffs

    def _space(self) -> tuple[int, int]:
        return self.n, self.trunc  # the other slots hold the integer form

    _degree = staticmethod(len)

    # -- constructors ------------------------------------------------------

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
        den, nums = self._integral()
        return Fraction(nums[0][0], den) if 0 in nums else Q0

    def truncate(self, trunc: int) -> "TensorSeries":
        """Deliberate re-truncation to a lower (or equal) degree."""
        if trunc > self.trunc:
            raise ValueError("cannot truncate upwards")
        if trunc == self.trunc:
            return self  # series are immutable
        den, nums = self._integral()
        return TensorSeries._over(self.n, trunc, den,
                                  {d: terms for d, terms in nums.items() if d <= trunc})

    # -- arithmetic --------------------------------------------------------

    def _integral(self) -> tuple[int, dict]:
        """(den, nums): integer numerators over den, the lcm of the denominators,
        in degree buckets of word codes.  Kept once formed: kernel results are
        born in this form, and a series built from Fractions forms it once."""
        if self._nums is None:
            den = math.lcm(*(c.denominator for c in self.coeffs.values()))
            self._den, self._nums = den, encode(
                {w: c.numerator * (den // c.denominator) for w, c in self.coeffs.items()},
                self.n)
        return self._den, self._nums

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        (d1, left), (d2, right) = self._integral(), other._integral()
        return TensorSeries._over(self.n, self.trunc, d1 * d2,
                                  convolve(left, right, self.n, self.trunc))

    def _power_series(self, coefficients: list[Fraction]) -> "TensorSeries":
        # with v = B / den, a(m) v^m = b(m) B^m / L for the integers
        # b(m) = a(m) L / den^m, L = lcm_m(q_m den^m), q_m the denominator of a(m)
        den, buckets = self._integral()
        scales = [a.denominator * den ** m for m, a in enumerate(coefficients)]
        lcm = math.lcm(*scales)
        b = [a.numerator * (lcm // q) for a, q in zip(coefficients, scales)]
        return TensorSeries._over(self.n, self.trunc, lcm,
                                  power_series(buckets, b, self.n, self.trunc))

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

    The image of each word is kept in a memoised prefix table, one dict per
    degree keyed by word code, as integer degree buckets over one
    gcd-reduced denominator; a new prefix costs one ``convolve`` with a
    generator image, and the table persists for the lifetime of the
    object.  Applying the substitution to a series, rational or an integer
    Magnus image, is then one integer linear combination over the common
    denominator.
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
        self._table = [{0: (1, {0: {0: 1}})}] + [{} for _ in range(trunc)]

    def _entry(self, d: int, code: int) -> tuple[int, dict]:
        """(den, nums) with the product of the images along the word = nums / den."""
        cached = self._table[d].get(code)
        if cached is None:
            prefix, last = divmod(code, self.n)
            den, nums = self._entry(d - 1, prefix)
            gen_den, gen_terms = self._generators[last]
            cached = self._table[d][code] = _reduced(
                den * gen_den, convolve(nums, gen_terms, self.n, self.trunc))
        return cached

    def __call__(self, series: TensorSeries) -> TensorSeries:
        if series.n != self.n or series.trunc != self.trunc:
            raise ValueError("series lives in the wrong tensor algebra")
        den, nums = series._integral()
        terms = [(c, self._entry(d, code))
                 for d, bucket in nums.items() for code, c in bucket.items()]
        lcm = math.lcm(*(entry_den for _, (entry_den, _) in terms))
        acc: dict = {}
        for c, (entry_den, image) in terms:
            convolve({0: {0: c * (lcm // entry_den)}}, image, self.n, self.trunc, acc)
        return TensorSeries._over(self.n, self.trunc, den * lcm, acc)
