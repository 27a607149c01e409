"""The special Artin representation and the total Milnor invariants.

Given a special expansion theta, every pure braid (or longitude tuple) L
acts on the completed free Lie algebra through the conjugated
automorphism  theta o m(Art L) o theta^-1,  where m(Art L) is the
automorphism of the completed group algebra induced by
x_j |-> y_j x_j y_j^-1.  The action sends each X_i to a conjugate
exp(Y_i) X_i exp(-Y_i) and fixes X_1 + ... + X_n; the tuple
``(Y_1, ..., Y_n)``, normalised so Y_i has no X_i component, is the
automorphism's defining data and ``sum_i X_i (x) Y_i`` is the total
Milnor invariant.

Two computations of the action are implemented:

* ``special_artin`` (production): the conjugator of X_i is
  Phi(U_i^-1) * theta(y_i) * U_i  where U_i is the canonical tangential
  witness of theta and Phi is the automorphism being computed.  Phi only
  raises degrees, so the self-reference resolves by iteration: knowing
  the Y through degree D determines Phi on any series through degree D+1
  and hence the Y through degree D+1.  The iteration starts from Phi = id,
  and round r forms every series at truncation min(max_degree, r + 1), so
  each round adds one exact degree at the cost of that degree only.  It
  stops when a round at truncation max_degree returns its own input,
  normally after max_degree + 1 rounds; speciality of the result is
  asserted, not assumed.

* ``infinitesimal_artin_series`` (reference, used by the test suite): the
  composite substitution route through the Magnus coordinatisation of the
  completed group algebra.  It costs a dense substitution pass per call
  and exists to certify the production route.
"""

from __future__ import annotations

from .expansions import (Expansion, is_special, longitude_magnus_images,
                         magnus_expansion, magnus_integer)
from .lie import HTensorLie, LieElement
from .tensor import Substitution, TensorSeries
from .words import Braid, LongitudeTuple, Word, longitudes


class FiltrationError(ValueError):
    """Input fails a Milnor-filtration membership precondition."""

    def __init__(self, required: int, first_degree: int):
        self.required = required
        self.first_degree = first_degree
        super().__init__(
            f"input is not in filtration level {required}: "
            f"invariant already nonzero in degree {first_degree}")


def _conjugated_generator(y: LieElement, i: int, trunc: int) -> TensorSeries:
    """exp(y) X_i exp(-y) at truncation trunc."""
    u = y.to_tensor(trunc).exp()
    return u * TensorSeries.generator(y.n, trunc, i) * u.inverse()


class SpecialAutData:
    """A special automorphism X_i |-> exp(Y_i) X_i exp(-Y_i), fixing sum X_i.

    ``entries[i-1]`` is Y_i, supported and exact in degrees 1..max_degree,
    with zero X_i coordinate in degree 1.  Series-level checks run at
    truncation max_degree + 1, the exactness horizon of the data.
    """

    __slots__ = ("n", "max_degree", "entries")

    def __init__(self, n: int, max_degree: int, entries: tuple[LieElement, ...]):
        self.n = n
        self.max_degree = max_degree
        self.entries = entries
        if len(self.entries) != self.n:
            raise ValueError("need one conjugating datum per generator")
        for i, y in enumerate(self.entries, start=1):
            if y.coefficient((i,)) != 0:
                raise ValueError(f"Y_{i} is not normalised: nonzero X_{i} component")
            if (y.max_degree() or 0) > self.max_degree:
                raise ValueError(f"Y_{i} exceeds the declared degree bound")

    def _trunc(self) -> int:
        return self.max_degree + 1

    def generator_image(self, i: int) -> TensorSeries:
        """exp(Y_i) X_i exp(-Y_i) as a series, exact through max_degree + 1."""
        return _conjugated_generator(self.entries[i - 1], i, self._trunc())

    def apply(self, series: TensorSeries) -> TensorSeries:
        """The automorphism applied to an arbitrary series."""
        images = [self.generator_image(i) for i in range(1, self.n + 1)]
        if series.trunc != self._trunc():
            images = [img.truncate(series.trunc) for img in images]
        return Substitution(images)(series)

    def speciality_defect(self) -> TensorSeries:
        """sum_i (image of X_i) - sum_i X_i; zero for genuine special data."""
        total = TensorSeries.zero(self.n, self._trunc())
        for i in range(1, self.n + 1):
            total = total + self.generator_image(i)
            total = total - TensorSeries.generator(self.n, self._trunc(), i)
        return total

    def validate(self, through_degree: int | None = None) -> None:
        """Assert the speciality identity, optionally only up to a degree.

        User-supplied longitude tuples with a declared truncation level K
        only promise the boundary condition modulo the lower central series
        at K+1, so their speciality is only checkable through degree K.
        """
        defect = self.speciality_defect()
        cap = self._trunc() if through_degree is None else through_degree
        bad = [d for d in range(1, cap + 1)
               if not defect.degree_component(d).is_zero()]
        if bad:
            raise RuntimeError(
                f"speciality violated in degree {bad[0]}; "
                "this indicates a bug in the Artin computation")

    def invariant(self) -> HTensorLie:
        return HTensorLie.from_entries(self.n, self.entries)


def _as_longitudes(data: Braid | LongitudeTuple, trunc: int) -> LongitudeTuple:
    if isinstance(data, Braid):
        return longitudes(data)
    if isinstance(data, LongitudeTuple):
        defect = data.boundary_defect()
        if len(defect) and data.truncation is None:
            raise ValueError("longitude tuple violates the boundary condition "
                             "exactly and carries no truncation level")
        # Magnus: the defect lies in Gamma_{d+1} iff its image is 1 through degree d
        d = min(data.truncation or 0, trunc)  # the caller reads no degree above trunc
        if len(defect) and (magnus_integer(data.n, d, defect.letters)
                            != TensorSeries.one(data.n, d)):
            raise ValueError(f"longitude tuple violates the boundary condition modulo "
                             f"lower central series term {data.truncation + 1}")
        return data
    raise TypeError(f"expected Braid or LongitudeTuple, got {type(data).__name__}")


def special_artin(data: Braid | LongitudeTuple, theta: Expansion,
                  max_degree: int | None = None) -> SpecialAutData:
    """The image of ``data`` under the theta-conjugated Artin representation.

    The conjugating data are exact through ``max_degree``, and every series
    is formed at that truncation.  Only the witnesses U_i read degree
    max_degree + 1 of theta, hence the headroom max_degree + 1 <= theta.trunc.
    """
    report = is_special(theta)
    if not report.is_special:
        raise ValueError(f"expansion is not special: {report.failure}")
    max_degree = theta.trunc - 1 if max_degree is None else max_degree
    if max_degree + 1 > theta.trunc:
        raise ValueError(f"degree {max_degree} needs expansion truncation "
                         f">= {max_degree + 1}, have {theta.trunc}")
    if (isinstance(data, LongitudeTuple) and data.truncation is not None
            and max_degree > data.truncation):
        raise ValueError("requested degree exceeds the longitude tuple's "
                         "trust level")
    key = (data, max_degree)  # values hash by n, letters and trust level
    if key in theta._artin_cache:  # only validated inputs are ever cached
        return theta._artin_cache[key]
    if not isinstance(data, Braid):  # boundary condition through max_degree + 1
        data = _as_longitudes(data, max_degree + 1)
    if data.n != theta.n:
        raise ValueError("strand count does not match the expansion")
    n = theta.n

    trunc = max(max_degree, 1)  # every series below is needed through max_degree
    witnesses = [u.truncate(trunc) for u in report.witnesses]
    witness_inverses = [u.inverse() for u in witnesses]
    to_theta = theta.magnus_substitution(trunc)
    tails = [to_theta(image) * witnesses[i]
             for i, image in enumerate(longitude_magnus_images(data, trunc))]

    entries = tuple(LieElement.zero(n) for _ in range(n))
    for round_ in range(max_degree + 2):
        # entries exact through degree round_ fix Phi, and so the Y, through
        # degree round_ + 1: this round needs no higher truncation than that
        t = min(trunc, round_ + 1)
        transport = Substitution([_conjugated_generator(y, i, t)
                                  for i, y in enumerate(entries, start=1)])
        new_entries = []
        for i in range(1, n + 1):
            b = (transport(witness_inverses[i - 1].truncate(t))
                 * tails[i - 1].truncate(t))
            # b is group-like and conjugates exp(X_i) to the image of X_i;
            # the normalised Y is the log of b, corrected by the central
            # slack exp(s X_i) that kills the X_i coordinate.
            lam = LieElement.from_tensor(b.log())
            s = -lam.coefficient((i,))
            if s:
                b = b * TensorSeries.generator(n, t, i).scale(s).exp()
                lam = LieElement.from_tensor(b.log())
            new_entries.append(lam.degree_range(1, max_degree))
        new_entries = tuple(new_entries)
        if t == trunc and new_entries == entries:
            break
        entries = new_entries
    else:
        raise RuntimeError("special Artin iteration failed to stabilise")

    result = SpecialAutData(n, max_degree, entries)
    if isinstance(data, LongitudeTuple) and data.truncation is not None:
        result.validate(through_degree=min(max_degree + 1, data.truncation))
    else:
        result.validate()
    theta._artin_cache[key] = result
    return result


def total_milnor(data: Braid | LongitudeTuple, theta: Expansion,
                 max_degree: int | None = None) -> HTensorLie:
    """sum_i X_i (x) Y_i, exact through ``max_degree``."""
    return special_artin(data, theta, max_degree).invariant()


def milnor_window(data: Braid | LongitudeTuple, theta: Expansion, lo: int,
                  hi: int) -> HTensorLie:
    """Degrees lo..hi of the total invariant, needing expansion truncation hi + 1;
    raises FiltrationError when the input is not in filtration level lo."""
    value = total_milnor(data, theta, max_degree=hi)
    if (value.min_degree() or lo) < lo:
        raise FiltrationError(lo, value.min_degree())
    return value.degree_range(lo, hi)


def milnor_degree(data: Braid | LongitudeTuple, theta: Expansion, k: int) -> HTensorLie:
    """The degree-k Milnor invariant of an input in filtration level k.

    Independent of the choice of special expansion, and valued in the
    kernel of the bracket contraction.
    """
    return milnor_window(data, theta, k, k)


def truncated_milnor(data: Braid | LongitudeTuple, theta: Expansion, k: int) -> HTensorLie:
    """Degrees k..2k-1 of the total invariant; additive on filtration-k inputs."""
    return milnor_window(data, theta, k, 2 * k - 1)


# -- reference implementation -------------------------------------------------

def infinitesimal_artin_series(data: Braid | LongitudeTuple, theta: Expansion,
                               i: int) -> TensorSeries:
    """Image of X_i under theta o m(Art L) o theta^-1, by direct substitution.

    The completed group algebra is coordinatised through the Magnus
    expansion: S = theta o magnus^-1 is the algebra automorphism with
    S(X_j) = theta(x_j) - 1, and m(Art L) transports to the substitution
    T(X_j) = magnus(y_j x_j y_j^-1) - 1.  The composite S o T o S^-1 is
    evaluated on X_i.  Dense and slow; test oracle only.
    """
    tuple_ = _as_longitudes(data, theta.trunc)
    n, trunc = theta.n, theta.trunc
    one = TensorSeries.one(n, trunc)
    s_map = Substitution([img - one for img in theta.images])

    # S^-1(X_i) degree by degree: the correction at degree d is minus the
    # degree-d error of the current approximation under S.
    z = TensorSeries.generator(n, trunc, i)
    for d in range(2, trunc + 1):
        error = s_map(z) - TensorSeries.generator(n, trunc, i)
        z = z - error.degree_component(d)

    magnus = magnus_expansion(n, trunc)
    t_images = []
    for j in range(1, n + 1):
        y = tuple_.words[j - 1]
        conj = y * Word.gen(n, j) * y.inverse()
        t_images.append(magnus.evaluate(conj) - one)

    return s_map(Substitution(t_images)(z))
