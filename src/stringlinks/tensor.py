"""The degree-truncated tensor algebra K<<X_1,...,X_n>> over the rationals.

A series is a finite map from words over {1..n} (tuples of generator
indices) to nonzero Fractions, with all words of length <= trunc.  The
truncation degree is an explicit part of every value: operations on
series with different (n, trunc) raise instead of silently re-truncating;
``truncate`` exists for deliberate reductions.

The Hopf structure is the one for which the generators are primitive:
``Delta(X_i) = X_i @ 1 + 1 @ X_i`` extended multiplicatively, so the
coproduct of a word is the sum of its ordered subword splittings.  The
primitivity and group-likeness predicates check that coproduct directly,
truncated at the ambient degree.
"""

from __future__ import annotations

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)

Wd = tuple[int, ...]


class TensorSeries:
    __slots__ = ("n", "trunc", "coeffs", "_buckets")

    def __init__(self, n: int, trunc: int, coeffs: dict[Wd, Fraction] | None = None):
        if n < 1:
            raise ValueError("need at least one generator")
        if trunc < 1:
            raise ValueError("truncation degree must be >= 1")
        self.n = n
        self.trunc = trunc
        if coeffs and not all(coeffs.values()):
            coeffs = {w: c for w, c in coeffs.items() if c}
        self.coeffs = {} if coeffs is None else coeffs
        self._buckets = None  # degree buckets, filled by the first product

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
            v = out.get(word, Q0) + Fraction(c)
            if v:
                out[word] = v
            else:
                out.pop(word, None)
        return cls(n, trunc, out)

    # -- basic structure ---------------------------------------------------

    def _check(self, other: "TensorSeries") -> None:
        if self.n != other.n or self.trunc != other.trunc:
            raise ValueError(
                f"mixed tensor algebras: ({self.n},{self.trunc}) vs "
                f"({other.n},{other.trunc})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorSeries) and self.n == other.n
                and self.trunc == other.trunc and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.trunc, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Q0)

    def coefficient(self, word) -> Fraction:
        return self.coeffs.get(tuple(word), Q0)

    def min_degree(self) -> int | None:
        """Smallest degree with a nonzero term, or None for the zero series."""
        return min((len(w) for w in self.coeffs), default=None)

    def degree_component(self, d: int) -> "TensorSeries":
        return TensorSeries(self.n, self.trunc,
                            {w: c for w, c in self.coeffs.items() if len(w) == d})

    def truncate(self, trunc: int) -> "TensorSeries":
        """Deliberate re-truncation to a lower (or equal) degree."""
        if trunc > self.trunc:
            raise ValueError("cannot truncate upwards")
        if trunc == self.trunc:
            return self  # series are immutable
        return TensorSeries(self.n, trunc,
                            {w: c for w, c in self.coeffs.items() if len(w) <= trunc})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, Q0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return TensorSeries(self.n, self.trunc, out)

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, Q0) - c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return TensorSeries(self.n, self.trunc, out)

    def __neg__(self) -> "TensorSeries":
        return self.scale(-1)

    def scale(self, s) -> "TensorSeries":
        s = Fraction(s)
        if not s:
            return TensorSeries(self.n, self.trunc)
        return TensorSeries(self.n, self.trunc,
                            {w: s * c for w, c in self.coeffs.items()})

    def _by_degree(self) -> dict[int, list[tuple[Wd, Fraction]]]:
        """Terms grouped by degree, computed once per series (coeffs never change)."""
        buckets = self._buckets
        if buckets is None:
            buckets = {}
            for w, c in self.coeffs.items():
                buckets.setdefault(len(w), []).append((w, c))
            self._buckets = buckets
        return buckets

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        trunc = self.trunc
        out: dict[Wd, Fraction] = {}
        get = out.get
        right = other._by_degree()
        for d1, terms1 in self._by_degree().items():
            for d2, terms2 in right.items():
                if d1 + d2 > trunc:
                    continue
                for w1, c1 in terms1:
                    for w2, c2 in terms2:
                        w = w1 + w2
                        v = get(w, Q0) + c1 * c2
                        if v:
                            out[w] = v
                        else:
                            del out[w]
        return TensorSeries(self.n, self.trunc, out)

    def inverse(self) -> "TensorSeries":
        """Multiplicative inverse; requires constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("inverse requires constant term 1")
        v = self - TensorSeries.one(self.n, self.trunc)
        out = TensorSeries.one(self.n, self.trunc)
        power = TensorSeries.one(self.n, self.trunc)
        for m in range(1, self.trunc + 1):
            power = power * v
            if power.is_zero():
                break
            out = out + power.scale((-1) ** m)
        return out

    def exp(self) -> "TensorSeries":
        """exp of a series with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        out = TensorSeries.one(self.n, self.trunc)
        power = TensorSeries.one(self.n, self.trunc)
        fact = 1
        for m in range(1, self.trunc + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= m
            out = out + power.scale(Fraction(1, fact))
        return out

    def log(self) -> "TensorSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log requires constant term 1")
        v = self - TensorSeries.one(self.n, self.trunc)
        out = TensorSeries.zero(self.n, self.trunc)
        power = TensorSeries.one(self.n, self.trunc)
        for m in range(1, self.trunc + 1):
            power = power * v
            if power.is_zero():
                break
            out = out + power.scale(Fraction((-1) ** (m - 1), m))
        return out

    # -- Hopf predicates ----------------------------------------------------

    def coproduct(self) -> dict[tuple[Wd, Wd], Fraction]:
        """The truncated coproduct as a map (left word, right word) -> coeff.

        Delta(w) for a word w is the sum over all subsets S of positions of
        (w restricted to S) tensor (w restricted to the complement).
        """
        out: dict[tuple[Wd, Wd], Fraction] = {}
        for w, c in self.coeffs.items():
            d = len(w)
            for mask in range(1 << d):
                left = tuple(w[k] for k in range(d) if mask >> k & 1)
                right = tuple(w[k] for k in range(d) if not mask >> k & 1)
                key = (left, right)
                v = out.get(key, Q0) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out

    def is_primitive(self) -> bool:
        if self.constant_term() != 0:
            return False
        for (left, right), c in self.coproduct().items():
            if left and right and c:
                return False
        return True

    def is_grouplike(self) -> bool:
        if self.constant_term() != 1:
            return False
        cop = self.coproduct()
        for w1, c1 in self.coeffs.items():
            for w2, c2 in self.coeffs.items():
                if len(w1) + len(w2) > self.trunc:
                    continue
                if cop.pop((w1, w2), Q0) != c1 * c2:
                    return False
        # anything left over in the coproduct support must have been zero
        return all(len(l) + len(r) > self.trunc or c == 0
                   for (l, r), c in cop.items())

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


def bch(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """log(exp(a) exp(b)) for primitive a, b; the result is again primitive."""
    a._check(b)
    if not a.is_primitive() or not b.is_primitive():
        raise ValueError("bch requires primitive arguments")
    return (a.exp() * b.exp()).log()


class Substitution:
    """The algebra endomorphism X_i |-> images[i-1], reusable across calls.

    Word images are built by extending a memoised prefix table, so the cost
    is one series product per distinct word prefix ever encountered; the
    table persists for the lifetime of the object.
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
        self.images = list(images)
        self._table: dict[Wd, TensorSeries] = {(): TensorSeries.one(n, trunc)}

    def _image_of(self, word: Wd) -> TensorSeries:
        cached = self._table.get(word)
        if cached is None:
            cached = self._image_of(word[:-1]) * self.images[word[-1] - 1]
            self._table[word] = cached
        return cached

    def __call__(self, series: TensorSeries) -> TensorSeries:
        if series.n != self.n or series.trunc != self.trunc:
            raise ValueError("series lives in the wrong tensor algebra")
        out: dict[Wd, Fraction] = {}
        for w, c in series.coeffs.items():
            for ww, cc in self._image_of(w).coeffs.items():
                v = out.get(ww, Q0) + c * cc
                if v:
                    out[ww] = v
                else:
                    del out[ww]
        return TensorSeries(self.n, self.trunc, out)
