from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlinks.expansions import _word_image
from stringlinks.lie import bch, is_grouplike, is_primitive
from stringlinks.tensor import Substitution, TensorSeries, convolve, decode, encode

from support import (is_grouplike_by_coproduct, is_primitive_by_coproduct,
                     power_series_by_fractions, product_by_fractions, seeded)


def gen(n, N, i):
    return TensorSeries.generator(n, N, i)


def one(n, N):
    return TensorSeries.one(n, N)


def random_primitive(n, N, rng, max_coeff=3):
    """Random Lie-style primitive: combination of commutator monomials."""
    from stringlinks.lie import LieElement, lyndon_words
    coords = {}
    for d in range(1, N + 1):
        for w in lyndon_words(n, d):
            if rng.random() < 0.3:
                c = rng.randint(-max_coeff, max_coeff)
                if c:
                    coords[w] = Fraction(c)
    return LieElement(n, coords).to_tensor(N)


def test_unit_and_concatenation():
    a = gen(2, 4, 1) + gen(2, 4, 2).scale(3)
    assert one(2, 4) * a == a
    assert a * one(2, 4) == a
    assert gen(2, 4, 1) * gen(2, 4, 2) == TensorSeries.from_terms(2, 4, [((1, 2), 1)])


def test_geometric_series_inverse():
    u = one(2, 5) + gen(2, 5, 1)
    inv = u.inverse()
    # 1 - X1 + X1^2 - ... up to the truncation
    expected = TensorSeries.from_terms(
        2, 5, [(tuple([1] * m), (-1) ** m) for m in range(6)])
    assert inv == expected
    assert u * inv == one(2, 5)
    assert inv * u == one(2, 5)


def test_exp_log_basics():
    z = TensorSeries.zero(2, 4)
    assert z.exp() == one(2, 4)
    x = gen(2, 5, 1)
    assert x.exp().log() == x
    # direct series oracle: exp(X1) = sum X1^m / m!
    expected = TensorSeries.from_terms(
        2, 5, [(tuple([1] * m), Fraction(1, factorial(m))) for m in range(6)])
    assert x.exp() == expected


def test_exp_log_round_trips_random():
    rng = seeded(5)
    for _ in range(10):
        p = random_primitive(3, 5, rng)
        assert p.exp().log() == p
        u = one(3, 5) + p  # arbitrary constant-term-1 series
        assert u.log().exp() == u


def test_domain_preconditions():
    with pytest.raises(ValueError):
        (one(2, 3) + gen(2, 3, 1)).exp()
    with pytest.raises(ValueError):
        gen(2, 3, 1).log()
    with pytest.raises(ValueError):
        gen(2, 3, 1).inverse()


def test_truncation_mismatch_is_an_error():
    with pytest.raises(ValueError):
        gen(2, 3, 1) * gen(2, 4, 1)
    with pytest.raises(ValueError):
        gen(2, 3, 1) + gen(3, 3, 1)
    assert gen(2, 4, 1).truncate(2) == gen(2, 2, 1)
    with pytest.raises(ValueError):
        gen(2, 4, 1).truncate(5)


def test_primitivity():
    # the library's extraction test and the coproduct oracle, case by case
    comm = gen(2, 4, 1) * gen(2, 4, 2) - gen(2, 4, 2) * gen(2, 4, 1)
    for primitive in (is_primitive, is_primitive_by_coproduct):
        assert primitive(gen(2, 4, 1) + gen(2, 4, 2))
        assert primitive(comm)
        assert not primitive(gen(2, 4, 1) * gen(2, 4, 2))
        assert not primitive(one(2, 4) + gen(2, 4, 1))
    for grouplike in (is_grouplike, is_grouplike_by_coproduct):
        assert grouplike(gen(2, 4, 1).exp())
        assert not grouplike(one(2, 2) + gen(2, 2, 1))
        assert not grouplike(one(2, 4) + gen(2, 4, 1))
        assert not grouplike(gen(2, 4, 1).exp().scale(2))


def test_bch_basics():
    x1, x2 = gen(2, 4, 1), gen(2, 4, 2)
    assert bch(x1, -x1).is_zero()
    assert bch(x1, TensorSeries.zero(2, 4)) == x1
    low = bch(x1, x2).truncate(2)
    half = Fraction(1, 2)
    expected = TensorSeries.from_terms(
        2, 2, [((1,), 1), ((2,), 1), ((1, 2), half), ((2, 1), -half)])
    assert low == expected


def test_bch_requires_primitives():
    with pytest.raises(ValueError):
        bch(gen(2, 3, 1) * gen(2, 3, 2), gen(2, 3, 1))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_bch_of_primitives_is_primitive(seed):
    rng = seeded(seed)
    a = random_primitive(2, 5, rng)
    b = random_primitive(2, 5, rng)
    assert is_primitive_by_coproduct(bch(a, b))


def test_products_of_grouplikes_are_grouplike():
    rng = seeded(17)
    for _ in range(8):
        u = random_primitive(3, 4, rng).exp()
        v = random_primitive(3, 4, rng).exp()
        assert is_grouplike_by_coproduct(u * v)


def test_substitute_identity_and_composition():
    n, N = 2, 4
    ident = [gen(n, N, i) for i in range(1, n + 1)]
    rng = seeded(3)
    s = random_primitive(n, N, rng).exp()
    assert Substitution(ident)(s) == s
    # composing two substitutions = substituting the composed images
    f = [gen(n, N, 2), gen(n, N, 1)]               # swap generators
    g = [gen(n, N, 1) + gen(n, N, 2).scale(2), gen(n, N, 2)]
    fg = [Substitution(f)(img) for img in g]
    assert Substitution(f)(Substitution(g)(s)) == Substitution(fg)(s)


def test_substitution_object_reusable():
    n, N = 2, 3
    sub = Substitution([gen(n, N, 2), gen(n, N, 1)])
    a = gen(n, N, 1) * gen(n, N, 1)
    b = gen(n, N, 1) * gen(n, N, 2)
    assert sub(a) == gen(n, N, 2) * gen(n, N, 2)
    assert sub(b) == gen(n, N, 2) * gen(n, N, 1)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))


def rational_series(n, N, min_degree):
    words = st.lists(st.integers(1, n), min_size=min_degree, max_size=N).map(tuple)
    return st.dictionaries(words, RATIONALS, max_size=12).map(
        lambda coeffs: TensorSeries.from_terms(n, N, coeffs.items()))


@given(st.lists(rational_series(2, 4, 1), min_size=2, max_size=2),
       rational_series(2, 4, 0), rational_series(2, 4, 0))
@settings(max_examples=40, deadline=None)
def test_substitution_with_rational_images(images, s, t):
    n, N = 2, 4
    expected = TensorSeries.zero(n, N)
    for w, c in s.coeffs.items():
        term = one(n, N)
        for g in w:
            term = term * images[g - 1]
        expected = expected + term.scale(c)
    assert Substitution(images)(s) == expected
    # the shared convolution agrees on int numerators and on Fractions
    ints = [{w: int(6 * c) for w, c in x.coeffs.items()} for x in (s, t)]
    int_product = decode(convolve(encode(ints[0], n), encode(ints[1], n), n, N), n)
    assert all(type(c) is int for c in int_product.values())
    fraction_product = decode(
        convolve(encode(s.coeffs, n), encode(t.coeffs, n), n, N), n)
    assert {w: Fraction(c, 36) for w, c in int_product.items()} == fraction_product


RATIONALS_720 = st.builds(Fraction, st.integers(-720, 720), st.integers(1, 720))


def series_720(min_degree=0):
    """Series in K<<X1,X2>> through degree 5 with denominators up to 720,
    the zero series and (from min_degree 0) the pure constants included."""
    words = st.lists(st.integers(1, 2), min_size=min_degree, max_size=5).map(tuple)
    coeffs = [st.just({}), st.dictionaries(words, RATIONALS_720, max_size=10)]
    if min_degree == 0:
        coeffs.append(RATIONALS_720.map(lambda c: {(): c}))
    return st.one_of(coeffs).map(lambda c: TensorSeries.from_terms(2, 5, c.items()))


EXP = [Fraction(1, factorial(m)) for m in range(6)]
LOG = [Fraction(0)] + [Fraction((-1) ** (m - 1), m) for m in range(1, 6)]
INVERSE = [Fraction((-1) ** m) for m in range(6)]


@given(series_720(), series_720(), series_720(min_degree=1),
       series_720(min_degree=3), series_720(min_degree=3))
@settings(max_examples=60, deadline=None)
def test_integer_kernel_agrees_with_fraction_oracle(a, b, v, high, other_high):
    u = one(2, 5) + v
    cases = [
        (a * b, product_by_fractions(a, b)),
        (b * a, product_by_fractions(b, a)),
        # degrees 3 + 3 lie past the truncation: the product cancels completely
        (high * other_high, TensorSeries.zero(2, 5)),
        (v.exp(), power_series_by_fractions(v, EXP)),
        (u.log(), power_series_by_fractions(u, LOG)),
        (u.inverse(), power_series_by_fractions(u, INVERSE)),
        # every term but the constant cancels
        (u * u.inverse(), one(2, 5)),
    ]
    for got, expected in cases:
        assert got == expected
        # the JSON prints str(c), so stored coefficients are nonzero Fractions
        assert all(type(c) is Fraction and c != 0 for c in got.coeffs.values())


# -- the integer-coded kernel against the word-keyed reference kernel ---------

@st.composite
def algebras(draw):
    """(n, trunc) with n = 1..4, the truncation kept small for larger n."""
    n = draw(st.integers(1, 4))
    return n, draw(st.integers(1, 5 if n <= 2 else 4))


def series_in(n, N, min_degree=0):
    words = st.lists(st.integers(1, n), min_size=min(min_degree, N), max_size=N).map(tuple)
    return st.dictionaries(words, RATIONALS_720, max_size=8).map(
        lambda coeffs: TensorSeries.from_terms(n, N, coeffs.items()))


def coefficients(name, N):
    """a(0..N) of exp, log or the geometric series behind inverse."""
    if name == "exp":
        return [Fraction(1, factorial(m)) for m in range(N + 1)]
    if name == "log":
        return [Fraction(0)] + [Fraction((-1) ** (m - 1), m) for m in range(1, N + 1)]
    return [Fraction((-1) ** m) for m in range(N + 1)]


def inverse_by_fractions(u):
    return power_series_by_fractions(u, coefficients("inverse", u.trunc))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_products_match_word_oracle(data):
    n, N = data.draw(algebras())
    a, b = data.draw(series_in(n, N)), data.draw(series_in(n, N))
    assert a * b == product_by_fractions(a, b)
    assert (a * b) * a == product_by_fractions(product_by_fractions(a, b), a)
    # every term pair of high * high lies past the truncation
    high = data.draw(series_in(n, N, min_degree=N // 2 + 1))
    assert (high * high)._integral() == (1, {}) and (high * high).is_zero()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_power_series_match_word_oracle(data):
    n, N = data.draw(algebras())
    v = data.draw(series_in(n, N, min_degree=1))
    u = one(n, N) + v
    assert v.exp() == power_series_by_fractions(v, coefficients("exp", N))
    assert u.log() == power_series_by_fractions(u, coefficients("log", N))
    assert u.inverse() == inverse_by_fractions(u)
    # every term but the constant cancels inside the kernel
    assert (u * u.inverse())._integral() == (1, {0: {0: 1}})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_substitution_matches_word_oracle(data):
    n, N = data.draw(algebras())
    images = [data.draw(series_in(n, N, min_degree=1)) for _ in range(n)]
    s = data.draw(series_in(n, N))
    expected = TensorSeries.zero(n, N)
    for w, c in s.coeffs.items():
        term = one(n, N)
        for g in w:
            term = product_by_fractions(term, images[g - 1])
        expected = expected + term.scale(c)
    sub = Substitution(images)
    assert sub(s) == expected
    # X_1 - X_n cancels to zero when both generators have one image
    same = Substitution([images[0]] * n)
    assert same(gen(n, N, 1) - gen(n, N, n))._integral() == (1, {})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_word_image_with_inverse_letters_matches_word_oracle(data):
    n, N = data.draw(algebras())
    factors = [one(n, N) + data.draw(series_in(n, N, min_degree=1)) for _ in range(n)]
    letters = data.draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
                                 max_size=6))
    expected = one(n, N)
    for g, e in letters:
        factor = factors[g - 1] if e == 1 else inverse_by_fractions(factors[g - 1])
        expected = product_by_fractions(expected, factor)
    inverses = {}
    assert _word_image(letters, factors, inverses) == expected
    # a letter and its inverse cancel, through the inverses kept above
    g = data.draw(st.integers(1, n))
    assert _word_image([(g, 1), (g, -1)], factors, inverses) == one(n, N)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_form_reads_like_fraction_form(data):
    n, N = data.draw(algebras())
    a, b = data.draw(series_in(n, N)), data.draw(series_in(n, N))
    born = a * b  # integer form only: nothing has read its Fractions yet
    built = TensorSeries(n, N, dict(product_by_fractions(a, b).coeffs))
    # the reduced integer form is canonical: den is the lcm of the denominators
    assert born._integral() == built._integral()
    assert born.constant_term() == built.constant_term()
    for k in range(1, N + 1):
        assert born.truncate(k) == built.truncate(k)
    assert born == built and hash(born) == hash(built)
    assert born.coeffs == built.coeffs
    assert all(type(c) is Fraction and c != 0 for c in born.coeffs.values())


def test_rendering():
    s = TensorSeries.from_terms(2, 3, [((), 1), ((1, 2), Fraction(-1, 2))])
    assert str(s) == "1 * 1  +  -1/2 * X1 X2"
    assert str(TensorSeries.zero(2, 3)) == "0"
