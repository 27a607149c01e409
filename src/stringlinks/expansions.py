"""Magnus-type expansions of the free group into the truncated tensor algebra.

An expansion is determined by the images theta(x_1), ..., theta(x_n); each
must be of the form 1 + X_i + (degree >= 2) and is extended
multiplicatively to words.  Three flavours matter here:

* the standard Magnus expansion  x_i |-> 1 + X_i   (not group-like);
* the exponential expansion      x_i |-> exp(X_i)  (group-like and
  tangential, but not normalised for n >= 2);
* special expansions: group-like, tangential (each theta(x_i) is a
  group-like conjugate of exp(X_i)) and normalised
  (theta(x_1...x_n) = exp(X_1 + ... + X_n)).

``build_special`` constructs special expansions degree by degree: starting
from the exponential expansion, the degree-(m+1) discrepancy of
log theta(x_1...x_n) is cancelled by conjugator corrections of degree m,
which is always possible because the bracket contraction
H (x) L_m -> L_{m+1} is onto.  The canonical strategy takes the
minimal-support row-reduced solution of that linear system; the
randomized strategy adds a seeded random kernel element, yielding a
genuinely different special expansion for independence tests.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .lie import (LieElement, bracket_map_matrix, conjugating_element,
                  lyndon_words)
from .tensor import Q0, Q1, TensorSeries, Wd
from .words import Braid, LongitudeTuple, Word, _generator_images, longitudes


def _int_mul(a: dict[Wd, int], b: dict[Wd, int], trunc: int) -> dict[Wd, int]:
    out: dict[Wd, int] = {}
    buckets: dict[int, list] = {}
    for w, c in b.items():
        buckets.setdefault(len(w), []).append((w, c))
    for w1, c1 in a.items():
        room = trunc - len(w1)
        for d2, terms in buckets.items():
            if d2 > room:
                continue
            for w2, c2 in terms:
                w = w1 + w2
                v = out.get(w, 0) + c1 * c2
                if v:
                    out[w] = v
                else:
                    del out[w]
    return out


def _int_inverse(a: dict[Wd, int], trunc: int) -> dict[Wd, int]:
    """Inverse of an integer series with constant term 1 (again integral)."""
    if a.get((), 0) != 1:
        raise ValueError("integer inverse requires constant term 1")
    v = dict(a)
    del v[()]
    out = {(): 1}
    power = {(): 1}
    for m in range(1, trunc + 1):
        power = _int_mul(power, v, trunc)
        if not power:
            break
        sign = (-1) ** m
        for w, c in power.items():
            val = out.get(w, 0) + sign * c
            if val:
                out[w] = val
            else:
                del out[w]
    return out


def magnus_integer(n: int, trunc: int, letters) -> dict[Wd, int]:
    """Integer coefficients of the standard Magnus image of a word.

    Multiplication by (1 + X_g) appends letters; multiplication by its
    inverse is the triangular back-substitution new * (1 + X_g) = acc,
    solved by increasing word length.  Everything stays in machine-free
    Python ints; this is the fast path for very long longitude words.
    """
    acc: dict[Wd, int] = {(): 1}
    for g, e in letters:
        if e == 1:
            new = dict(acc)
            for w, c in acc.items():
                if len(w) < trunc:
                    ww = w + (g,)
                    v = new.get(ww, 0) + c
                    if v:
                        new[ww] = v
                    else:
                        del new[ww]
        else:
            new = {}
            by_len: list[list[Wd]] = [[] for _ in range(trunc + 1)]
            for w in acc:
                by_len[len(w)].append(w)
            pending = {(): None}
            new[()] = acc[()]
            for length in range(1, trunc + 1):
                candidates = set(by_len[length])
                candidates.update(w + (g,) for w in pending if len(w) == length - 1)
                next_pending = {}
                for w in candidates:
                    v = acc.get(w, 0)
                    if w[-1] == g:
                        v -= new.get(w[:-1], 0)
                    if v:
                        new[w] = v
                        next_pending[w] = None
                pending = next_pending
        acc = new
    return acc


@functools.lru_cache(maxsize=None)
def _letter_longitudes(n: int, i: int, j: int, e: int) -> tuple[Word, ...]:
    return longitudes(Braid(n, ((i, j, e),))).words


def braid_magnus_images(braid: Braid, trunc: int) -> list[dict[Wd, int]]:
    """Integer Magnus images of the normalised longitudes of a braid.

    Iterates the stacking law  y_i(L * l) = Art(L)(y_i(l)) * y_i(L)  at the
    level of integer series, carrying along the images of the Artin action
    on the generators.  The cost is linear in the braid word length and
    does not depend on how long the longitudes are as free-group words,
    which matters: longitudes of deep-commutator braids explode
    exponentially.
    """
    n = braid.n
    one: dict[Wd, int] = {(): 1}
    action = [{(): 1, (j,): 1} for j in range(1, n + 1)]
    longs: list[dict[Wd, int]] = [dict(one) for _ in range(n)]
    for i, j, e in braid.letters:
        inverses: dict[int, dict[Wd, int]] = {}

        def image_of_word(word: Word) -> dict[Wd, int]:
            out = dict(one)
            for g, ex in word.letters:
                if ex == 1:
                    factor = action[g - 1]
                else:
                    factor = inverses.get(g)
                    if factor is None:
                        factor = inverses[g] = _int_inverse(action[g - 1], trunc)
                out = _int_mul(out, factor, trunc)
            return out

        letter_longs = _letter_longitudes(n, i, j, e)
        new_longs = [_int_mul(image_of_word(letter_longs[k]), longs[k], trunc)
                     for k in range(n)]
        gen_words = _generator_images(n, i, j, e)
        new_action = [image_of_word(gen_words[k]) if k in gen_words else action[k - 1]
                      for k in range(1, n + 1)]
        longs = new_longs
        action = new_action
    return longs


class _ScaledTable:
    """Integer-scaled images of tensor words under a substitution.

    Entry for a word w is (den, nums) with nums integer and
    sum nums[u]/den * u equal to the product of the generator images along
    w.  Entries extend lazily by one convolution per new prefix; gcd
    reduction keeps the integers small.  Used to evaluate an expansion on
    the (integer) Magnus image of a long word by one linear combination.
    """

    def __init__(self, images: list[TensorSeries], trunc: int):
        self.trunc = trunc
        self.gen_entries = [self._scale(img) for img in images]
        self.entries: dict[Wd, tuple[int, dict[Wd, int]]] = {(): (1, {(): 1})}

    @staticmethod
    def _scale(series: TensorSeries) -> tuple[int, dict[Wd, int]]:
        den = 1
        for c in series.coeffs.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den, {w: int(c * den) for w, c in series.coeffs.items()}

    def entry(self, word: Wd) -> tuple[int, dict[Wd, int]]:
        cached = self.entries.get(word)
        if cached is None:
            den1, nums1 = self.entry(word[:-1])
            den2, nums2 = self.gen_entries[word[-1] - 1]
            trunc = self.trunc
            out: dict[Wd, int] = {}
            buckets1: dict[int, list] = {}
            for w, c in nums1.items():
                buckets1.setdefault(len(w), []).append((w, c))
            buckets2: dict[int, list] = {}
            for w, c in nums2.items():
                buckets2.setdefault(len(w), []).append((w, c))
            for d1, terms1 in buckets1.items():
                for d2, terms2 in buckets2.items():
                    if d1 + d2 > trunc:
                        continue
                    for w1, c1 in terms1:
                        for w2, c2 in terms2:
                            w = w1 + w2
                            v = out.get(w, 0) + c1 * c2
                            if v:
                                out[w] = v
                            else:
                                del out[w]
            den = den1 * den2
            g = den
            for c in out.values():
                g = math.gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                den //= g
                out = {w: c // g for w, c in out.items()}
            cached = (den, out)
            self.entries[word] = cached
        return cached

    def combine(self, n: int, int_coeffs: dict[Wd, int]) -> TensorSeries:
        """sum of c_w * entry(w) as an exact rational series."""
        used = [(c, self.entry(w)) for w, c in int_coeffs.items() if c]
        lcm = 1
        for _c, (den, _nums) in used:
            lcm = lcm * den // math.gcd(lcm, den)
        acc: dict[Wd, int] = {}
        for c, (den, nums) in used:
            f = c * (lcm // den)
            for w, num in nums.items():
                v = acc.get(w, 0) + f * num
                if v:
                    acc[w] = v
                else:
                    del acc[w]
        return TensorSeries(n, self.trunc,
                            {w: Fraction(v, lcm) for w, v in acc.items()})


# words at least this long are evaluated through the integer Magnus route
_DENSE_EVAL_CUTOFF = 24


class Expansion:
    """A Magnus expansion with cached word evaluation."""

    def __init__(self, n: int, trunc: int, images: tuple[TensorSeries, ...]):
        if len(images) != n:
            raise ValueError("need one image per generator")
        for i, img in enumerate(images, start=1):
            if img.n != n or img.trunc != trunc:
                raise ValueError("image lives in the wrong tensor algebra")
            lead = {(): Q1, (i,): Q1}
            low = {w: c for w, c in img.coeffs.items() if len(w) <= 1}
            if low != lead:
                raise ValueError(
                    f"image of x_{i} violates the Magnus condition 1 + X_{i} + O(2)")
        self.n = n
        self.trunc = trunc
        self.images = images
        self._inverses = tuple(img.inverse() for img in images)
        self._word_cache: dict[tuple, TensorSeries] = {}
        # special_artin results by (input letters, max_degree)
        self._artin_cache: dict[tuple, object] = {}
        self._scaled_tables: dict[int, _ScaledTable] = {}
        self._speciality: SpecialityReport | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expansion) and self.n == other.n
                and self.trunc == other.trunc and self.images == other.images)

    def evaluate(self, word: Word, trunc: int | None = None) -> TensorSeries:
        """theta(word), multiplicative over letters.

        Short words multiply the cached generator images directly; long
        words go through the integer Magnus route, which converts the word
        once and spends one rational linear combination instead of one
        dense series product per letter.
        """
        if word.n != self.n:
            raise ValueError("word rank does not match expansion")
        trunc = self.trunc if trunc is None else trunc
        if trunc > self.trunc:
            raise ValueError("requested truncation exceeds the expansion's")
        if len(word.letters) >= _DENSE_EVAL_CUTOFF:
            image = magnus_integer(self.n, trunc, word.letters)
            return self._scaled_table(trunc).combine(self.n, image)
        return self._eval_letters(word.letters).truncate(trunc)

    def _scaled_table(self, trunc: int) -> _ScaledTable:
        table = self._scaled_tables.get(trunc)
        if table is None:
            table = self._scaled_tables[trunc] = _ScaledTable(
                [img.truncate(trunc) - TensorSeries.one(self.n, trunc)
                 for img in self.images], trunc)
        return table

    def _eval_letters(self, letters: tuple) -> TensorSeries:
        if not letters:
            return TensorSeries.one(self.n, self.trunc)
        if len(letters) == 1:
            g, e = letters[0]
            return self.images[g - 1] if e == 1 else self._inverses[g - 1]
        cached = self._word_cache.get(letters)
        if cached is None:
            half = len(letters) // 2
            cached = self._eval_letters(letters[:half]) * self._eval_letters(letters[half:])
            if len(letters) <= 64:  # bound the cache to short-ish subwords
                self._word_cache[letters] = cached
        return cached

    def boundary_image(self) -> TensorSeries:
        if self.n == 1:  # free group machinery wants rank >= 2
            return self.images[0]
        return self.evaluate(Word.of(self.n, ((k, 1) for k in range(1, self.n + 1))))

    # -- serialisation -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "truncation": self.trunc,
            "images": [
                [{"word": list(w), "coefficient": str(c)} for w, c in img.sorted_terms()]
                for img in self.images
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Expansion":
        n, trunc = doc["n"], doc["truncation"]
        images = tuple(
            TensorSeries.from_terms(
                n, trunc,
                ((tuple(t["word"]), Fraction(t["coefficient"])) for t in terms))
            for terms in doc["images"])
        return cls(n, trunc, images)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "Expansion":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def magnus_expansion(n: int, trunc: int) -> Expansion:
    """The standard Magnus expansion x_i |-> 1 + X_i."""
    one = TensorSeries.one(n, trunc)
    return Expansion(n, trunc, tuple(
        one + TensorSeries.generator(n, trunc, i) for i in range(1, n + 1)))


def exp_expansion(n: int, trunc: int) -> Expansion:
    """The exponential expansion x_i |-> exp(X_i)."""
    return Expansion(n, trunc, tuple(
        TensorSeries.generator(n, trunc, i).exp() for i in range(1, n + 1)))


def is_grouplike_expansion(theta: Expansion) -> bool:
    return all(img.is_grouplike() for img in theta.images)


@dataclass
class SpecialityReport:
    """Outcome of the speciality verification of an expansion.

    ``witnesses`` holds the canonical group-like conjugators U_i with
    theta(x_i) = U_i exp(X_i) U_i^-1, normalised so log(U_i) has no X_i
    component; they are only present when the tangential check passed.
    """

    is_special: bool
    grouplike: bool
    tangential: bool
    normalized: bool
    witnesses: tuple[TensorSeries, ...] | None
    failure: str | None = None
    failure_degree: int | None = None


def is_special(theta: Expansion) -> SpecialityReport:
    """Verify the tangential and normalised conditions from first principles.

    Independent of ``build_special``: conjugators are re-derived by the
    degree-by-degree conjugacy solver and the boundary identity is checked
    by direct evaluation.
    """
    if theta._speciality is not None:
        return theta._speciality
    n, trunc = theta.n, theta.trunc

    grouplike = is_grouplike_expansion(theta)
    if not grouplike:
        bad = next(i for i, img in enumerate(theta.images, start=1)
                   if not img.is_grouplike())
        report = SpecialityReport(False, False, False, False, None,
                                  failure=f"theta(x_{bad}) is not group-like")
        theta._speciality = report
        return report

    witnesses = []
    for i in range(1, n + 1):
        target = LieElement.from_tensor(theta.images[i - 1].log())
        try:
            z = conjugating_element(target, i, trunc - 1)
        except ValueError as exc:
            report = SpecialityReport(False, True, False, False, None,
                                      failure=f"theta(x_{i}) not tangential: {exc}")
            theta._speciality = report
            return report
        witnesses.append(z.to_tensor(trunc).exp())

    target = TensorSeries.zero(n, trunc)
    for i in range(1, n + 1):
        target = target + TensorSeries.generator(n, trunc, i)
    defect = theta.boundary_image() - target.exp()
    if not defect.is_zero():
        report = SpecialityReport(False, True, True, False, tuple(witnesses),
                                  failure="normalised condition fails",
                                  failure_degree=defect.min_degree())
        theta._speciality = report
        return report

    report = SpecialityReport(True, True, True, True, tuple(witnesses))
    theta._speciality = report
    return report


@functools.lru_cache(maxsize=None)
def _correction_system(n: int, m: int):
    """Presolved system and kernel basis for sum_i [X_i, u_i] = r, u_i in L_m."""
    rows = bracket_map_matrix(n, m)
    return linalg.PresolvedSystem(rows), linalg.nullspace(rows)


def build_special(n: int, trunc: int, strategy: str = "canonical",
                  seed: int = 0) -> Expansion:
    """Construct a special expansion of F_n at the given truncation degree.

    strategy "canonical" is deterministic; "randomized" perturbs each
    degree's corrector by a seeded random kernel element of the correction
    system (coefficients in -2..2), producing distinct special expansions
    for different seeds with high probability.

    Step m only needs the discrepancy through degree m + 1, so it forms
    the images, their product, the log and the Lyndon extraction at
    truncation m + 1 (and still checks that degrees 2..m vanish); the
    conjugators are kept at full truncation and the final images are
    formed from them once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if strategy not in ("canonical", "randomized"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "randomized" else None

    conjugators = [TensorSeries.one(n, trunc) for _ in range(n)]

    def current_images(t: int) -> tuple[TensorSeries, ...]:
        out = []
        for i in range(1, n + 1):
            u = conjugators[i - 1].truncate(t)
            out.append(u * TensorSeries.generator(n, t, i).exp() * u.inverse())
        return tuple(out)

    for m in range(1, trunc):
        # the degree-(m+1) discrepancy only sees the images through m + 1
        images = current_images(m + 1)
        product = TensorSeries.one(n, m + 1)
        for img in images:
            product = product * img
        discrepancy = LieElement.from_tensor(product.log())
        for i in range(1, n + 1):
            discrepancy = discrepancy - LieElement.generator(n, i)
        for d in range(2, m + 1):
            if not discrepancy.degree_component(d).is_zero():
                raise RuntimeError(
                    f"builder invariant broken: degree-{d} discrepancy survived")
        top = discrepancy.degree_component(m + 1)
        if top.is_zero() and rng is None:
            continue

        domain = [(i, w) for i in range(1, n + 1) for w in lyndon_words(n, m)]
        codomain = lyndon_words(n, m + 1)
        cod_index = {w: k for k, w in enumerate(codomain)}
        system, kernel = _correction_system(n, m)
        rhs = [Q0] * len(codomain)
        for w, c in top.coords.items():
            rhs[cod_index[w]] = c  # sum_i [u_i, X_i] = -top cancels top
        solution = system.solve(rhs)
        if solution is None:
            raise RuntimeError("corrector system inconsistent; the bracket "
                               "contraction should be onto")
        if rng is not None:
            for kernel_vec in kernel:
                coeff = rng.randint(-2, 2)
                if coeff:
                    solution = [s + coeff * v for s, v in zip(solution, kernel_vec)]
        # each conjugator takes this degree's factors exp(c w) in domain
        # order, multiplied together first so the dense conjugator is
        # multiplied once per step
        corrections = [TensorSeries.one(n, trunc) for _ in range(n)]
        for col, (i, w) in enumerate(domain):
            c = solution[col]
            if c:
                factor = LieElement(n, {w: c}).to_tensor(trunc).exp()
                corrections[i - 1] = corrections[i - 1] * factor
        conjugators = [u * f for u, f in zip(conjugators, corrections)]

    theta = Expansion(n, trunc, current_images(trunc))
    report = is_special(theta)
    if not report.is_special:
        raise RuntimeError(f"builder produced a non-special expansion: {report.failure}")
    return theta


def longitude_magnus_images(data: Braid | LongitudeTuple, trunc: int) -> list[dict[Wd, int]]:
    """Integer Magnus images of the longitudes, by the cheapest route."""
    if isinstance(data, Braid):
        return braid_magnus_images(data, trunc)
    return [magnus_integer(data.n, trunc, y.letters) for y in data.words]


def filtration_degree(data: Braid | LongitudeTuple, max_k: int) -> int:
    """Largest k <= max_k with all longitudes in the k-th lower central term.

    Detected through the Magnus expansion: a word lies in the k-th lower
    central series term exactly when its Magnus image is 1 + (degree >= k).
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    level = max_k
    for image in longitude_magnus_images(data, max_k):
        lowest = min((len(w) for w in image if w), default=None)
        if lowest is not None:
            level = min(level, lowest)
    return level

