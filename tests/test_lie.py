from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlinks.lie import (HTensorLie, LieElement, _lyndon_tensor, bch,
                             bracket_map_matrix, bracketing_str, conjugating_element,
                             d_dimension, is_grouplike, is_lyndon, is_primitive,
                             lyndon_words, witt_dim)
from stringlinks.tensor import TensorSeries, decode

from support import (column_rank, conjugating_element_reference, exp_ad,
                     is_grouplike_by_coproduct, is_primitive_by_coproduct,
                     lyndon_tensor_reference, seeded)


def random_lie(n, degrees, rng, density=0.4, max_coeff=3):
    coords = {}
    for d in degrees:
        for w in lyndon_words(n, d):
            if rng.random() < density:
                c = rng.randint(-max_coeff, max_coeff)
                if c:
                    coords[w] = Fraction(c)
    return LieElement(n, coords)


def test_lyndon_enumeration():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert len(lyndon_words(3, 3)) == 8
    for n in (2, 3):
        for d in range(1, 7):
            words = lyndon_words(n, d)
            assert len(words) == witt_dim(n, d)
            assert all(is_lyndon(w) for w in words)
            assert list(words) == sorted(words)
    for bad_n in (0, -1):  # used to loop forever
        with pytest.raises(ValueError):
            lyndon_words(bad_n, 1)


def test_witt_dimensions():
    assert witt_dim(2, 2) == 1
    assert witt_dim(2, 4) == 3
    for n in (2, 3, 4):
        assert witt_dim(n, 1) == n


def test_bracket_basics():
    a = LieElement.generator(3, 1)
    b = LieElement.generator(3, 2)
    assert a.bracket(a).is_zero()
    assert a.bracket(b) == LieElement(3, {(1, 2): Fraction(1)})
    assert b.bracket(a) == LieElement(3, {(1, 2): Fraction(-1)})


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_jacobi_identity(seed):
    rng = seeded(seed)
    a = random_lie(3, [1, 2], rng)
    b = random_lie(3, [1, 2], rng)
    c = random_lie(3, [1], rng)
    total = (a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
             + c.bracket(a.bracket(b)))
    assert total.is_zero()


def test_bracket_agrees_with_tensor_commutator():
    rng = seeded(41)
    for _ in range(10):
        a = random_lie(3, [1, 2], rng)
        b = random_lie(3, [1, 2, 3], rng)
        n_deg = 5
        ta, tb = a.to_tensor(n_deg), b.to_tensor(n_deg)
        assert a.bracket(b).to_tensor(n_deg) == ta * tb - tb * ta


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=40, deadline=None)
def test_lyndon_tensor_matches_word_keyed_reference(n, d, data):
    w = data.draw(st.sampled_from(lyndon_words(n, d)))
    assert decode({d: _lyndon_tensor(n, w)}, n) == lyndon_tensor_reference(w)


def test_extraction_names_the_stray_word():
    # stripping beta(1 2) = X1 X2 - X2 X1 leaves X2 X1 as the smallest word
    stray = TensorSeries.from_terms(2, 3, [((1, 2), 1), ((2, 2, 1), 3)])
    with pytest.raises(ValueError, match=r"stray word \(2, 1\)"):
        LieElement.from_tensor(stray)


def test_to_tensor_examples():
    br = LieElement.generator(2, 1).bracket(LieElement.generator(2, 2))
    x1, x2 = TensorSeries.generator(2, 2, 1), TensorSeries.generator(2, 2, 2)
    assert br.to_tensor(2) == x1 * x2 - x2 * x1


def test_tensor_round_trip():
    rng = seeded(13)
    for _ in range(10):
        a = random_lie(3, [1, 2, 3, 4], rng)
        assert LieElement.from_tensor(a.to_tensor(4)) == a
        assert is_primitive_by_coproduct(a.to_tensor(5))


def test_from_tensor_of_bch():
    x1 = TensorSeries.generator(2, 4, 1)
    x2 = TensorSeries.generator(2, 4, 2)
    coords = LieElement.from_tensor(bch(x1, x2))
    assert coords.degree_component(2) == LieElement(
        2, {(1, 2): Fraction(1, 2)})


def test_from_tensor_rejects_non_lie():
    s = TensorSeries.generator(2, 3, 1) * TensorSeries.generator(2, 3, 2)
    with pytest.raises(ValueError):
        LieElement.from_tensor(s)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_extraction_agrees_with_coproduct_oracle(seed, n, trunc):
    # Friedrichs' criterion against the coproduct on Lie series, their
    # exponentials, and both with one word of degree >= 2 added
    rng = seeded(seed)
    lie = random_lie(n, range(1, trunc + 1), rng, density=0.2).to_tensor(trunc)
    word = tuple(rng.randint(1, n) for _ in range(rng.randint(2, trunc)))
    stray = TensorSeries.from_terms(n, trunc, [(word, rng.choice([-2, -1, 1, 2]))])
    for series, expected in ((lie, True), (lie + stray, False)):
        assert is_primitive(series) is expected
        assert is_primitive_by_coproduct(series) is expected
    group = lie.exp()
    for series, expected in ((group, True), (group + stray, False)):
        assert is_grouplike(series) is expected
        assert is_grouplike_by_coproduct(series) is expected


def test_bracket_map_and_kernel():
    x12 = HTensorLie.from_entries(2, (LieElement.generator(2, 2),
                                      LieElement.generator(2, 1)))
    assert x12.bracket_map().is_zero()
    assert x12.in_bracket_kernel()
    lone = HTensorLie.from_entries(2, (LieElement.generator(2, 2), LieElement.zero(2)))
    assert not lone.in_bracket_kernel()


def test_kernel_dimension_matches_witt_arithmetic():
    # the bracket contraction H (x) L_l -> L_{l+1} is onto, so the kernel
    # dimension is n*witt(n,l) - witt(n,l+1), which d_dimension computes; the
    # left side ranks the bracket matrix through the Fraction oracle.
    for n, l in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        kernel_dim = n * witt_dim(n, l) - column_rank(bracket_map_matrix(n, l))
        assert kernel_dim == d_dimension(n, l)
    assert d_dimension(3, 2) == 1


def test_bracket_map_matrix_is_onto():
    for n, l in [(2, 2), (3, 2), (3, 3)]:
        m = bracket_map_matrix(n, l)
        assert column_rank(m) == witt_dim(n, l + 1)
        # a public matrix holds Fractions, so every caller's division stays
        # exact; int entries would turn into floats in a true division, as in
        # the Fraction oracle rref_reference
        assert all(type(c) is Fraction for col in m for c in col)


def test_conjugating_element_round_trip():
    rng = seeded(29)
    n = 3
    for i in (1, 2):
        for _ in range(6):
            y = random_lie(n, [1, 2, 3], rng)
            y = y - LieElement(n, {(i,): y.coefficient((i,))})  # normalise
            target = exp_ad(y, i, 5)
            recovered = conjugating_element(target.to_tensor(5).exp(), i)
            assert recovered == y


def solver_outcome(solve):
    """The solver's result, or the message of the ValueError it raised."""
    try:
        return solve()
    except ValueError as exc:
        return str(exc)


def test_conjugating_element_rejects_non_conjugates():
    n = 2
    # ad(-, X_1) on degree 2 only reaches multiples of [X1,[X1,X2]], so a
    # degree-3 component along [[X1,X2],X2] is an obstruction
    for target, reason in [
            (LieElement.generator(n, 2), "degree-1 part differs"),
            (LieElement.generator(n, 1) + LieElement(n, {(1, 2, 2): Fraction(1)}),
             "obstruction in degree 3")]:
        expected = f"target is not conjugate to X1: {reason}"
        assert solver_outcome(lambda: conjugating_element(
            target.to_tensor(4).exp(), 1)) == expected
        assert solver_outcome(lambda: conjugating_element_reference(
            target, 1, 3)) == expected


def test_conjugating_element_rejects_series_that_are_not_grouplike():
    # 1 + X_1 is no conjugate of exp(X_1): its degree-2 equation fails
    with pytest.raises(ValueError, match="obstruction in degree 2"):
        conjugating_element(TensorSeries.one(2, 3) + TensorSeries.generator(2, 3, 1), 1)
    # a non-group-like U conjugates exp(X_1) to a series that passes every
    # degree, and the Lyndon extraction of log U refuses it
    u = TensorSeries.one(2, 4) + TensorSeries.from_terms(2, 4, [((2, 2), 1)])
    series = u * TensorSeries.generator(2, 4, 1).exp() * u.inverse()
    with pytest.raises(ValueError, match="the conjugator is not group-like"):
        conjugating_element(series, 1)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_conjugating_element_matches_reference(seed, n, max_degree):
    # the closed-form sweep against elimination in the Lie algebra, on a
    # random normalised Y and on the same target moved by a Lie element of
    # one degree, which is a conjugate of X_i or an obstruction there
    rng = seeded(seed)
    i = rng.randint(1, n)
    trunc = max_degree + 1
    y = LieElement.zero(n)
    for d in range(1, max_degree + 1):  # about three terms per degree
        y = y + random_lie(n, [d], rng, density=min(0.5, 3 / witt_dim(n, d)))
    y = y - LieElement(n, {(i,): y.coefficient((i,))})
    target = exp_ad(y, i, trunc)
    assert conjugating_element(target.to_tensor(trunc).exp(), i) == y
    assert conjugating_element_reference(target, i, max_degree) == y
    moved = target + random_lie(n, [rng.randint(2, trunc)], rng, density=0.5)
    assert solver_outcome(lambda: conjugating_element(moved.to_tensor(trunc).exp(), i)) \
        == solver_outcome(lambda: conjugating_element_reference(moved, i, max_degree))


def test_rendering():
    assert bracketing_str((1, 2)) == "[X1,X2]"
    assert bracketing_str((1, 1, 2)) == "[X1,[X1,X2]]"
    e = LieElement(2, {(1, 2): Fraction(-1, 3)})
    assert str(e) == "-1/3 * [X1,X2]"


def test_htensorlie_coordinates_and_json():
    v = HTensorLie.from_entries(2, (LieElement.generator(2, 2),
                                    LieElement.generator(2, 1)))
    vec = v.coordinates(1)
    assert vec == [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    entries = v.to_json_entries()
    assert {"i": 1, "lyndonWord": [2], "bracketing": "X2",
            "coefficient": "1"} in entries
