import hashlib
from fractions import Fraction

import pytest

from stringlinks import milnor
from stringlinks.cli import parse_braid
from stringlinks.expansions import Expansion, build_special
from stringlinks.lie import HTensorLie, LieElement, conjugating_element
from stringlinks.milnor import (FiltrationError, SpecialAutData,
                                infinitesimal_artin_series, milnor_degree,
                                milnor_window, special_artin, total_milnor,
                                truncated_milnor)
from stringlinks.tensor import TensorSeries
from stringlinks.words import Braid, LongitudeTuple, Word, commutator, longitudes

from support import (conjugating_element_reference, nested_commutator_corpus, random_braid,
                     seeded, shared_expansion)


def magnus_degree_oracle(data, k):
    """Degree-k part of the invariant straight from the Magnus expansion.

    For inputs in filtration level k the lowest-degree part of the Magnus
    image of each longitude is the image in the degree-k graded piece; it
    is a Lie element and independent of any expansion choice.
    """
    from stringlinks.expansions import longitude_magnus_images
    entries = []
    n = data.n
    for image in longitude_magnus_images(data, k):
        component = {w: Fraction(c) for w, c in image.coeffs.items() if len(w) == k}
        entries.append(LieElement.from_tensor(TensorSeries(n, k, component)))
    return HTensorLie.from_entries(n, tuple(entries))


def test_conjugator_basics():
    n, trunc = 2, 5
    w = TensorSeries.generator(n, trunc, 1).exp()
    assert conjugating_element(w, 1).is_zero()
    z = LieElement(n, {(1, 2): Fraction(1)})
    zt = z.to_tensor(trunc).exp()
    w2 = zt * TensorSeries.generator(n, trunc, 1).exp() * zt.inverse()
    assert conjugating_element(w2, 1) == z


def test_conjugator_round_trip_random():
    rng = seeded(77)
    n, trunc = 2, 5
    for i in (1, 2):
        for _ in range(5):
            coords = {}
            from stringlinks.lie import lyndon_words
            for d in range(1, trunc):
                for w in lyndon_words(n, d):
                    if rng.random() < 0.4 and w != (i,):
                        coords[w] = Fraction(rng.randint(-2, 2))
            y = LieElement(n, coords)
            yt = y.to_tensor(trunc).exp()
            w_series = yt * TensorSeries.generator(n, trunc, i).exp() * yt.inverse()
            assert conjugating_element(w_series, i) == y


def test_conjugator_requires_grouplike():
    with pytest.raises(ValueError):
        conjugating_element(TensorSeries.one(2, 3) + TensorSeries.generator(2, 3, 1), 1)


def test_special_artin_identity():
    theta = shared_expansion(2, 4)
    aut = special_artin(Braid.identity(2), theta)
    assert all(y.is_zero() for y in aut.entries)
    assert total_milnor(Braid.identity(2), theta).is_zero()


def test_special_artin_rejects_other_inputs():
    theta = shared_expansion(2, 4)
    for data in (Word.gen(2, 1), "A(1,2)"):
        with pytest.raises(TypeError):
            special_artin(data, theta)


def test_special_artin_degree_one():
    theta = shared_expansion(2, 4)
    aut = special_artin(Braid.gen(2, 1, 2), theta)
    assert aut.entries[0].degree_component(1) == LieElement.generator(2, 2)
    assert aut.entries[1].degree_component(1) == LieElement.generator(2, 1)


def test_special_artin_speciality_defect_zero():
    theta = shared_expansion(3, 4)
    rng = seeded(12)
    for _ in range(5):
        b = random_braid(3, rng.randint(1, 5), rng)
        aut = special_artin(b, theta)
        assert aut.speciality_defect().is_zero()


def test_special_aut_data_normalisation_enforced():
    with pytest.raises(ValueError):
        SpecialAutData(2, 3, (LieElement.generator(2, 1), LieElement.zero(2)))


def composite_reference(data, theta, max_degree):
    """The Y_i through max_degree by the first-principles substitution composite."""
    return tuple(conjugating_element_reference(LieElement.from_tensor(
        infinitesimal_artin_series(data, theta, i)), i, max_degree)
        for i in range(1, data.n + 1))


def test_matches_composite_reference():
    # the production fixed-point route against the first-principles
    # substitution composite, on every strand and at every degree bound,
    # including those below the expansion's exactness horizon
    corpus = nested_commutator_corpus()
    for n, trunc, braids in [
        (2, 5, [Braid.gen(2, 1, 2), Braid.gen(2, 1, 2) ** 2]),
        (3, 4, [corpus["level2"][0], corpus["g"][0] * corpus["g"][2]]),
        (3, 5, [corpus["level3"][1]]),
    ]:
        theta = shared_expansion(n, trunc)
        for braid in braids:
            reference = composite_reference(braid, theta, trunc - 1)
            assert special_artin(braid, theta).entries == reference
            for max_degree in range(1, trunc - 1):
                assert special_artin(braid, theta, max_degree).entries == tuple(
                    y.degree_range(1, max_degree) for y in reference)


def test_trusted_tuple_matches_composite_reference():
    # y_1 times a degree-2 commutator keeps the boundary defect in the third
    # lower central term, so the tuple is trusted at level 2, and its Y differ
    # from the braid's in degree 2
    theta = shared_expansion(3, 5)
    braid = nested_commutator_corpus()["level2"][0]
    words = list(longitudes(braid).words)
    words[0] = words[0] * commutator(Word.gen(3, 2), Word.gen(3, 3))
    trusted = LongitudeTuple(3, tuple(words), truncation=2)
    assert special_artin(trusted, theta, 2).entries != special_artin(braid, theta, 2).entries
    for max_degree in range(3):
        assert (special_artin(trusted, theta, max_degree).entries
                == composite_reference(trusted, theta, max_degree))


@pytest.mark.parametrize("longitude_tuple", [False, True], ids=["braid", "tuple"])
def test_series_work_at_the_exactness_horizon(monkeypatch, longitude_tuple):
    # only the witnesses read degree max_degree + 1 of theta: the Magnus
    # images and their theta images are formed at truncation max_degree,
    # and at truncation 1 for max_degree 0
    theta = build_special(3, 5)  # a fresh expansion: no cached Artin data
    braid = parse_braid("[A(1,2), A(1,3)]", 3)
    data = longitudes(braid) if longitude_tuple else braid
    seen = []
    images, to_theta = milnor.longitude_magnus_images, Expansion.magnus_substitution
    monkeypatch.setattr(milnor, "longitude_magnus_images", lambda data, trunc: (
        seen.append(("images", trunc)) or images(data, trunc)))
    monkeypatch.setattr(Expansion, "magnus_substitution", lambda self, trunc: (
        seen.append(("theta", trunc)) or to_theta(self, trunc)))
    for max_degree, work in ((4, 4), (2, 2), (1, 1), (0, 1)):
        seen.clear()
        special_artin(data, theta, max_degree)
        assert sorted(seen) == [("images", work), ("theta", work)]


def test_special_artin_degree_zero():
    # no degree asked for: zero entries, and still validated
    aut = special_artin(Braid.gen(2, 1, 2), shared_expansion(2, 4), 0)
    assert aut.max_degree == 0 and all(y.is_zero() for y in aut.entries)
    aut.validate()


@pytest.mark.parametrize("word, max_degree, digest", [
    ("A(1,2) A(2,3)^-1 A(1,3)^2 A(1,2)^-1", None,
     "94bcafe142620d43f5e18f0f6711104ce0af089a4bc77fefdfdb73727b8cb397"),
    ("[A(2,3)^-2 , [A(1,3)^-1 , A(1,2)]]", 5,
     "c5bf69f3bcbe7d85d151760da14f29504712155a1dd4a32ac62f22c59a29ac7d"),
], ids=["level1", "level3"])
def test_pinned_total_invariants(word, max_degree, digest):
    # sha256 of the printed invariant through degree 5 over the canonical
    # (3, 6) expansion, recorded from the unstaged Artin iteration
    value = total_milnor(parse_braid(word, 3), shared_expansion(3, 6), max_degree)
    assert hashlib.sha256(str(value).encode()).hexdigest() == digest


def test_degree_k_matches_magnus_oracle():
    corpus = nested_commutator_corpus()
    theta = shared_expansion(3, 4)
    for braid, k in [(corpus["level2"][0], 2), (corpus["level3"][0], 3)]:
        value = milnor_degree(braid, theta, k)
        assert value == magnus_degree_oracle(braid, k)
        assert value.in_bracket_kernel()


def test_mu2_of_standard_commutator_frozen_value():
    # mu_2([A12,A13]) computed by the independent Magnus oracle and frozen
    corpus = nested_commutator_corpus()
    theta = shared_expansion(3, 4)
    value = milnor_degree(corpus["level2"][0], theta, 2)
    expected = HTensorLie.from_entries(3, (
        LieElement(3, {(2, 3): Fraction(-1)}),
        LieElement(3, {(1, 3): Fraction(1)}),
        LieElement(3, {(1, 2): Fraction(-1)}),
    ))
    assert value == expected


def test_theta_independence_of_degree_part():
    corpus = nested_commutator_corpus()
    braid = corpus["level2"][0]
    values = []
    for strategy, seed in [("canonical", 0), ("randomized", 1), ("randomized", 2)]:
        theta = shared_expansion(3, 4, strategy, seed)
        values.append(milnor_degree(braid, theta, 2))
    assert values[0] == values[1] == values[2]
    # while the full invariants genuinely differ across expansions
    full_a = total_milnor(braid, shared_expansion(3, 4))
    full_b = total_milnor(braid, shared_expansion(3, 4, "randomized", 1))
    assert full_a != full_b


def test_filtration_errors():
    theta = shared_expansion(3, 4)
    with pytest.raises(FiltrationError) as info:
        milnor_degree(Braid.gen(3, 1, 2), theta, 2)
    assert info.value.first_degree == 1
    with pytest.raises(FiltrationError):
        truncated_milnor(Braid.gen(3, 1, 2), theta, 2)


def test_milnor_window_is_a_window_of_the_total_invariant():
    theta = shared_expansion(3, 4)
    braid = parse_braid("[A(1,2), A(1,3)]", 3)  # level 2, nonzero in degree 2
    for lo, hi in [(1, 3), (2, 2), (2, 3), (1, 1)]:
        assert (milnor_window(braid, theta, lo, hi)
                == total_milnor(braid, theta, hi).degree_range(lo, hi))
    with pytest.raises(FiltrationError) as info:
        milnor_window(braid, theta, 3, 3)
    assert info.value.required == 3 and info.value.first_degree == 2


def test_artin_cache_keys_on_the_whole_input():
    # a fresh expansion, so no earlier test has filled its cache
    theta = build_special(2, 4)
    braid = Braid.gen(2, 1, 2)
    words = longitudes(braid).words
    exact = special_artin(LongitudeTuple(2, words), theta, max_degree=2)
    # the same words at another trust level are another input
    trusted = special_artin(LongitudeTuple(2, words, truncation=2), theta, max_degree=2)
    assert trusted is not exact and trusted.entries == exact.entries
    # equal inputs hit the cache
    assert special_artin(LongitudeTuple(2, words), theta, max_degree=2) is exact
    assert special_artin(Braid.gen(2, 1, 2), theta, 2) is special_artin(braid, theta, 2)
    assert special_artin(braid, theta, 2) is not exact


def test_truncated_additivity_single_pair():
    corpus = nested_commutator_corpus()
    theta = shared_expansion(3, 4)
    a, b = corpus["level2"][0], corpus["level2"][1]
    va = truncated_milnor(a, theta, 2)
    vb = truncated_milnor(b, theta, 2)
    vab = truncated_milnor(a * b, theta, 2)
    assert vab == va + vb


def test_functoriality_of_the_action():
    theta = shared_expansion(3, 4)
    corpus = nested_commutator_corpus()
    a, b = corpus["g"][0], corpus["level2"][0]
    aut_a = special_artin(a, theta)
    aut_b = special_artin(b, theta)
    aut_ab = special_artin(a * b, theta)
    for i in range(1, 4):
        assert aut_ab.generator_image(i) == aut_a.apply(aut_b.generator_image(i))


def test_longitude_tuple_input():
    theta = shared_expansion(3, 4)
    braid = nested_commutator_corpus()["level2"][0]
    tuple_ = longitudes(braid)
    assert total_milnor(tuple_, theta) == total_milnor(braid, theta)


def test_user_tuple_with_truncation_level():
    # a hand-made tuple that is only a boundary action modulo degree 3
    theta = shared_expansion(2, 4)
    braid_tuple = longitudes(Braid.gen(2, 1, 2))
    perturbed = list(braid_tuple.words)
    deep = commutator_word()
    perturbed[0] = perturbed[0] * deep
    from stringlinks.words import LongitudeTuple
    lt = LongitudeTuple(2, tuple(perturbed), truncation=2)
    value = special_artin(lt, theta, max_degree=2)
    assert value.entries[0].degree_component(1) == LieElement.generator(2, 2)
    with pytest.raises(ValueError):
        special_artin(lt, theta, max_degree=3)


def commutator_word():
    from stringlinks.words import commutator
    x1, x2 = Word.gen(2, 1), Word.gen(2, 2)
    return commutator(commutator(x1, x2), x2)
