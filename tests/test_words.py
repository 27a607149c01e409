import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlinks.words import (Braid, LongitudeTuple, Word, artin_action,
                               commutator, longitudes, pure_braid_relations)

from support import random_braid, seeded


letters_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              st.sampled_from([1, -1])),
    max_size=30)


def test_free_reduction_examples():
    assert Word.of(3, [(1, 1), (2, 1), (2, -1)]) == Word.gen(3, 1)
    assert Word.of(3, []) == Word.identity(3)
    comm = commutator(Word.gen(2, 1), Word.gen(2, 2))
    assert len(comm) == 4  # already reduced


def test_word_validation():
    with pytest.raises(ValueError):
        Word.of(2, [(3, 1)])
    with pytest.raises(ValueError):
        Word.of(2, [(1, 2)])
    with pytest.raises(ValueError):
        Word(2, ((1, 1), (1, -1)))  # not reduced
    with pytest.raises(ValueError):
        Word.identity(1)


@given(letters_strategy)
@settings(max_examples=60, deadline=None)
def test_reduction_is_idempotent_and_inverse_law(letters):
    w = Word.of(3, letters)
    assert Word.of(3, w.letters) == w
    assert w * w.inverse() == Word.identity(3)
    assert (w.inverse()).inverse() == w


@given(letters_strategy, letters_strategy)
@settings(max_examples=40, deadline=None)
def test_product_represents_concatenation(a, b):
    wa, wb = Word.of(3, a), Word.of(3, b)
    assert wa * wb == Word.of(3, tuple(a) + tuple(b))


@given(letters_strategy)
@settings(max_examples=30, deadline=None)
def test_word_power_is_the_repeated_product(letters):
    w = Word.of(3, letters)
    for k in range(-4, 5):
        product = Word.identity(3)
        for _ in range(abs(k)):
            product = product * (w if k > 0 else w.inverse())
        assert w ** k == product


def test_braid_power_is_the_repeated_product():
    rng = seeded(5)
    for _ in range(10):
        b = random_braid(4, rng.randint(0, 6), rng)
        for k in range(-4, 5):
            product = Braid.identity(4)
            for _ in range(abs(k)):
                product = product * (b if k > 0 else b.inverse())
            assert b ** k == product


def test_str_rendering():
    w = Word.of(2, [(1, 1), (1, 1), (2, -1)])
    assert str(w) == "x1^2*x2^-1"
    assert str(Word.identity(2)) == "1"


def test_braid_validation():
    with pytest.raises(ValueError):
        Braid.gen(3, 2, 1)
    with pytest.raises(ValueError):
        Braid.gen(3, 1, 4)


def test_artin_identity_and_inverse_pairs():
    n = 4
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            g = Braid.gen(n, i, j)
            for w in [Word.gen(n, k) for k in range(1, n + 1)]:
                assert artin_action(Braid.identity(n), w) == w
                assert artin_action(g * g.inverse(), w) == w
                assert artin_action(g.inverse() * g, w) == w


def test_artin_fixes_boundary_word():
    n = 4
    boundary = Word.of(n, [(k, 1) for k in range(1, n + 1)])
    rng = seeded(11)
    for _ in range(20):
        b = random_braid(n, rng.randint(0, 8), rng)
        assert artin_action(b, boundary) == boundary


def test_generator_action_convention():
    # the documented band-generator convention, pinned exactly
    n = 2
    g = Braid.gen(n, 1, 2)
    x1, x2 = Word.gen(n, 1), Word.gen(n, 2)
    assert artin_action(g, x1) == x1 * x2 * x1 * x2.inverse() * x1.inverse()
    assert artin_action(g, x2) == x1 * x2 * x1.inverse()


def test_relation_table_n4():
    n = 4
    rels = pure_braid_relations(n)
    assert len(rels) == 11
    for lhs, rhs in rels:
        for k in range(1, n + 1):
            x = Word.gen(n, k)
            assert artin_action(lhs, x) == artin_action(rhs, x)


def test_artin_is_homomorphism_for_stacking():
    n = 3
    rng = seeded(7)
    for _ in range(15):
        a = random_braid(n, rng.randint(0, 5), rng)
        b = random_braid(n, rng.randint(0, 5), rng)
        for k in range(1, n + 1):
            x = Word.gen(n, k)
            assert artin_action(a * b, x) == artin_action(a, artin_action(b, x))


def test_longitudes_identity_braid():
    lt = longitudes(Braid.identity(3))
    assert all(y == Word.identity(3) for y in lt.words)


def test_longitudes_of_generator():
    lt = longitudes(Braid.gen(2, 1, 2))
    y1, y2 = lt.words
    # abelianisations: [y_1] = [x_2], [y_2] = [x_1]
    assert y1.exponent_sum(1) == 0 and y1.exponent_sum(2) == 1
    assert y2.exponent_sum(1) == 1 and y2.exponent_sum(2) == 0
    assert y1 == Word.of(2, [(1, 1), (2, 1), (1, -1)])
    assert y2 == Word.gen(2, 1)


def test_longitudes_of_commutator_abelianise_to_zero():
    b = commutator(Braid.gen(3, 1, 2), Braid.gen(3, 1, 3))
    lt = longitudes(b)
    for y in lt.words:
        for k in range(1, 4):
            assert y.exponent_sum(k) == 0


def test_longitude_normalisation_random():
    rng = seeded(23)
    for _ in range(15):
        b = random_braid(3, rng.randint(0, 7), rng)
        lt = longitudes(b)
        for i, y in enumerate(lt.words, start=1):
            assert y.exponent_sum(i) == 0
        assert lt.boundary_defect() == Word.identity(3)


def test_longitudes_reconstruct_action():
    rng = seeded(31)
    for _ in range(10):
        b = random_braid(3, rng.randint(1, 6), rng)
        lt = longitudes(b)
        for i in range(1, 4):
            expected = artin_action(b, Word.gen(3, i))
            y = lt.words[i - 1]
            assert y * Word.gen(3, i) * y.inverse() == expected


def test_longitude_tuple_validation():
    with pytest.raises(ValueError):
        LongitudeTuple(2, (Word.gen(2, 1), Word.identity(2)))  # y_1 not normalised
    lt = LongitudeTuple(2, (Word.gen(2, 2), Word.gen(2, 1)))
    assert len(lt.boundary_defect()) > 0  # not an actual action; defect visible


@pytest.mark.parametrize("truncation", [0, -3])
def test_longitude_tuple_truncation_below_one_raises(truncation):
    # a trust level below 1 trusts no degree; the CLI refuses such files too
    words = (Word.gen(2, 2), Word.gen(2, 1))
    with pytest.raises(ValueError, match="truncation"):
        LongitudeTuple(2, words, truncation)
    assert LongitudeTuple(2, words, 1).truncation == 1


def test_value_hash_is_kept(monkeypatch):
    braid = Braid.gen(3, 1, 2) * Braid.gen(3, 2, 3).inverse()
    data = longitudes(braid)
    first = hash(data)
    keys = []
    original = LongitudeTuple._key

    def spy(self):
        keys.append(id(self))
        return original(self)
    monkeypatch.setattr(LongitudeTuple, "_key", spy)
    assert hash(data) == first
    assert keys == []
    # an equal value built afresh forms its key for its first hash only
    again = LongitudeTuple(data.n, data.words, data.truncation)
    assert hash(again) == first and hash(again) == first
    assert keys == [id(again)]
