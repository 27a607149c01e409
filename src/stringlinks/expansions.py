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
``is_special`` re-derives each conjugator from theta(x_i) by the
closed-form sweep of ``lie.conjugating_element``, independent of the
builder's ``rref`` and bracket matrices.

A word is multiplied out under a generator map by one loop,
``_word_image``: short words under theta itself, and long words through
their integer Magnus images (``magnus_integer``, and
``braid_magnus_images`` for the longitudes of a braid, whose cost does not
grow with the longitudes' length).  It multiplies each letter into one
accumulator in place, acc <- acc + acc (f - 1), with no new series per
letter.  Magnus images stay integer-coded series, and the substitution
S(X_j) = theta(x_j) - 1 maps one to theta(word) by one linear
combination.  Every product here runs through the shared kernel of ``tensor``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import linalg
from .lie import (HTensorLie, LieElement, bracket_map_matrix, conjugating_element,
                  h_tensor_l_basis, is_grouplike, lyndon_words)
from .linalg import Q1
from .tensor import Substitution, TensorSeries, convolve
from .words import Braid, LongitudeTuple, Word, _generator_images, longitudes


def _word_image(letters, factors: list[TensorSeries], inverses: dict) -> TensorSeries:
    """The product over letters (g, e) of factors[g-1] ** e.

    Factors have constant term 1.  A letter's factor (den + V) / den
    updates the coded numerators in place, acc <- acc + acc (den - 1 + V),
    source buckets from the highest degree down and the step's constant
    term last, so each bucket is read before anything is added to it.
    Each inverse is formed once and kept in ``inverses``, which callers may
    share between words over the same factors.
    """
    n, trunc = factors[0].n, factors[0].trunc
    den, acc = 1, {0: {0: 1}}
    for g, e in letters:
        factor = factors[g - 1] if e == 1 else inverses.get(g)
        if factor is None:
            factor = inverses[g] = factors[g - 1].inverse()
        factor_den, nums = factor._integral()
        step = {d: terms for d, terms in nums.items() if d}
        if factor_den != 1:
            step[0] = {0: factor_den - 1}
        convolve({d: acc[d] for d in sorted(acc, reverse=True)}, step, n, trunc, acc)
        den *= factor_den
    return TensorSeries._over(n, trunc, den, acc)


def magnus_integer(n: int, trunc: int, letters) -> TensorSeries:
    """The standard Magnus image x_g |-> 1 + X_g of a word, an integer series.

    The inverse of 1 + X_g is sum_m (-X_g)^m, so everything stays in Python
    ints; this is the fast path for very long longitude words.
    """
    factors = [TensorSeries(n, trunc, {(): Q1, (g,): Q1}) for g in range(1, n + 1)]
    return _word_image(letters, factors, {})


@functools.lru_cache(maxsize=None)
def _letter_longitudes(n: int, i: int, j: int, e: int) -> tuple[Word, ...]:
    return longitudes(Braid(n, ((i, j, e),))).words


def braid_magnus_images(braid: Braid, trunc: int) -> list[TensorSeries]:
    """Integer Magnus images of the normalised longitudes of a braid.

    Iterates the stacking law  y_i(L * l) = Art(L)(y_i(l)) * y_i(L)  at the
    level of integer series, carrying along the images of the Artin action
    on the generators.  The cost is linear in the braid word length and
    does not depend on how long the longitudes are as free-group words,
    which matters: longitudes of deep-commutator braids explode
    exponentially.
    """
    n = braid.n
    action = [TensorSeries(n, trunc, {(): Q1, (j,): Q1}) for j in range(1, n + 1)]
    longs = [TensorSeries.one(n, trunc)] * n
    for i, j, e in braid.letters:
        inverses: dict[int, TensorSeries] = {}
        longs = [_word_image(y.letters, action, inverses) * old
                 for y, old in zip(_letter_longitudes(n, i, j, e), longs)]
        gen_words = _generator_images(n, i, j, e)
        action = [_word_image(gen_words[k].letters, action, inverses)
                  if k in gen_words else action[k - 1] for k in range(1, n + 1)]
    return longs


# words at least this long are evaluated through the integer Magnus route
_DENSE_EVAL_CUTOFF = 24


class Expansion:
    """A Magnus expansion, given by the images theta(x_1), ..., theta(x_n)."""

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
        # special_artin results by (input, max_degree)
        self._artin_cache: dict[tuple, object] = {}
        self._speciality: SpecialityReport | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expansion) and self.n == other.n
                and self.trunc == other.trunc and self.images == other.images)

    def evaluate(self, word: Word, trunc: int | None = None) -> TensorSeries:
        """theta(word), multiplicative over letters.

        Short words multiply the generator images (or their inverses)
        letter by letter.  Long words go through the integer Magnus route:
        the word's Magnus image is computed once in integers, and
        ``magnus_substitution`` turns it into theta(word) by one linear
        combination instead of one dense series product per letter.
        """
        if word.n != self.n:
            raise ValueError("word rank does not match expansion")
        trunc = self.trunc if trunc is None else trunc
        if trunc > self.trunc:
            raise ValueError("requested truncation exceeds the expansion's")
        if len(word.letters) >= _DENSE_EVAL_CUTOFF:
            image = magnus_integer(self.n, trunc, word.letters)
            return self.magnus_substitution(trunc)(image)
        return _word_image(word.letters, [img.truncate(trunc) for img in self.images], {})

    def magnus_substitution(self, trunc: int) -> Substitution:
        """S(X_j) = theta(x_j) - 1 at truncation trunc: Magnus image to theta image."""
        one = TensorSeries.one(self.n, trunc)
        return Substitution([img.truncate(trunc) - one for img in self.images])

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
    return all(is_grouplike(img) for img in theta.images)


class SpecialityReport:
    """Outcome of the speciality verification of an expansion.

    ``witnesses`` holds the canonical group-like conjugators U_i with
    theta(x_i) = U_i exp(X_i) U_i^-1, normalised so log(U_i) has no X_i
    component; log(U_i) is determined through degree trunc - 1 and its top
    degree is zero by convention.  Present only if the tangential check passed.
    """

    __slots__ = ("is_special", "grouplike", "tangential", "normalized",
                 "witnesses", "failure", "failure_degree")

    def __init__(self, is_special: bool, grouplike: bool, tangential: bool,
                 normalized: bool, witnesses: tuple[TensorSeries, ...] | None,
                 failure: str | None = None, failure_degree: int | None = None):
        self.is_special = is_special
        self.grouplike = grouplike
        self.tangential = tangential
        self.normalized = normalized
        self.witnesses = witnesses
        self.failure = failure
        self.failure_degree = failure_degree


def is_special(theta: Expansion) -> SpecialityReport:
    """Verify the tangential and normalised conditions from first principles.

    The conjugators are re-derived from each theta(x_i) by
    ``conjugating_element``, one exactly checked closed-form sweep over the
    degrees of theta(x_i) U_i = U_i exp(X_i) that shares neither ``rref``
    nor the bracket matrices with ``build_special``; group-likeness is
    decided by the Lyndon extraction of log U_i, or of log theta(x_i) when
    that fails.  The boundary identity is checked by direct evaluation.
    The report is computed once per expansion.
    """
    if theta._speciality is None:
        theta._speciality = _speciality(theta)
    return theta._speciality


def _speciality(theta: Expansion) -> SpecialityReport:
    n, trunc = theta.n, theta.trunc
    witnesses = []
    not_tangential = None  # the first failure; later images may not be group-like
    for i, image in enumerate(theta.images, start=1):
        try:
            witnesses.append(conjugating_element(image, i).to_tensor(trunc).exp())
        except ValueError as exc:
            if not is_grouplike(image):
                return SpecialityReport(False, False, False, False, None,
                                        failure=f"theta(x_{i}) is not group-like")
            not_tangential = not_tangential or f"theta(x_{i}) not tangential: {exc}"
    if not_tangential:
        return SpecialityReport(False, True, False, False, None, failure=not_tangential)

    target = TensorSeries(n, trunc, {(i,): Q1 for i in range(1, n + 1)}).exp()
    boundary = theta.boundary_image()
    if boundary._integral() != target._integral():  # reduced forms are canonical
        return SpecialityReport(False, True, True, False, tuple(witnesses),
                                failure="normalised condition fails",
                                failure_degree=(boundary - target).min_degree())
    return SpecialityReport(True, True, True, True, tuple(witnesses))


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

        # the corrector system sum_i [X_i, u_i] = top, u_i in L_m: then
        # sum_i [u_i, X_i] = -top cancels top
        columns = bracket_map_matrix(n, m)
        solution = linalg.solve(columns, top.vector(lyndon_words(n, m + 1)))
        if solution is None:
            raise RuntimeError("corrector system inconsistent; the bracket "
                               "contraction should be onto")
        if rng is not None:
            for kernel_vec in linalg.kernel(columns):
                coeff = rng.randint(-2, 2)
                if coeff:
                    solution = [s + coeff * v for s, v in zip(solution, kernel_vec)]
        # each conjugator takes this degree's factors exp(c w) in domain
        # order, multiplied together first so the dense conjugator is
        # multiplied once per step; for 2m >= trunc their product is the one
        # sum 1 + sum c w up to a part D of degree trunc (none for 2m > trunc),
        # and no image sees D: (u + D) E (u^-1 - D) = u E u^-1 at truncation trunc
        one = TensorSeries.one(n, trunc)
        entries = HTensorLie(n, dict(zip(h_tensor_l_basis(n, m), solution))).entries
        for i, y in enumerate(entries):
            if 2 * m >= trunc:
                correction = one + y.to_tensor(trunc)
            else:
                correction = one
                for w, c in y.coeffs.items():
                    correction = correction * LieElement(n, {w: c}).to_tensor(trunc).exp()
            conjugators[i] = conjugators[i] * correction

    theta = Expansion(n, trunc, current_images(trunc))
    report = is_special(theta)
    if not report.is_special:
        raise RuntimeError(f"builder produced a non-special expansion: {report.failure}")
    return theta


def longitude_magnus_images(data: Braid | LongitudeTuple, trunc: int) -> list[TensorSeries]:
    """Integer Magnus images of the longitudes, by the cheapest route."""
    if isinstance(data, Braid):
        return braid_magnus_images(data, trunc)
    return [magnus_integer(data.n, trunc, y.letters) for y in data.words]


def filtration_degree(data: Braid | LongitudeTuple, max_k: int) -> int:
    """Largest k <= max_k with all longitudes in the k-th lower central term.

    Detected through the Magnus expansion: a word lies in the k-th lower
    central series term exactly when its Magnus image is 1 + (degree >= k).
    The images are built at truncations 1, 2, 4, ... capped at max_k, and
    the search stops at the first truncation where some image has a term of
    positive degree: truncation leaves the low-degree coefficients alone, so
    that lowest degree is already exact.  Data trusted modulo the (K+1)-st
    term shows levels up to K + 1 only, so max_k is capped there.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if isinstance(data, LongitudeTuple) and data.truncation is not None:
        max_k = min(max_k, data.truncation + 1)
    trunc = 1
    while True:
        trunc = min(trunc, max_k)
        images = longitude_magnus_images(data, trunc)
        lowest = min((d for y in images for d in y._integral()[1] if d), default=None)
        if lowest is not None or trunc == max_k:
            return lowest or max_k
        trunc *= 2

