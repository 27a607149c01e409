import hashlib
import json
from fractions import Fraction

import pytest

from stringlinks.cli import load_expansion
from stringlinks.expansions import (Expansion, braid_magnus_images, build_special,
                                    exp_expansion, filtration_degree,
                                    is_grouplike_expansion, is_special,
                                    magnus_expansion, magnus_integer)
from stringlinks.lie import LieElement
from stringlinks.tensor import TensorSeries
from stringlinks.words import Braid, Word, commutator, longitudes

from support import is_grouplike_by_coproduct, random_braid, seeded, shared_expansion


def test_magnus_images():
    theta = magnus_expansion(2, 3)
    one = TensorSeries.one(2, 3)
    assert theta.images[0] == one + TensorSeries.generator(2, 3, 1)
    assert theta.evaluate(Word.identity(2)) == one


def test_evaluate_is_multiplicative():
    theta = magnus_expansion(3, 4)
    rng = seeded(2)
    for _ in range(10):
        a = Word.of(3, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(5)])
        b = Word.of(3, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(5)])
        assert theta.evaluate(a * b) == theta.evaluate(a) * theta.evaluate(b)
    x1 = Word.gen(3, 1)
    assert theta.evaluate(x1.inverse()) == theta.evaluate(x1).inverse()


def test_exp_expansion_inverse_law():
    theta = exp_expansion(2, 4)
    w = Word.gen(2, 1) * Word.gen(2, 1).inverse()
    assert theta.evaluate(w) == TensorSeries.one(2, 4)


def test_magnus_not_grouplike():
    assert not is_grouplike_expansion(magnus_expansion(2, 2))
    assert is_grouplike_expansion(exp_expansion(2, 4))


def test_speciality_failure_reports():
    x1, x2 = (TensorSeries.generator(2, 4, i) for i in (1, 2))
    # exp(X1 + [X2, [X2, X1]]) is group-like, but [X1, u] = [X2, [X2, X1]]
    # has no solution u, so it is not a conjugate of exp(X1)
    twisted = (x1 + LieElement(2, {(1, 2, 2): Fraction(1)}).to_tensor(4)).exp()
    cases = [
        ((x1.exp() + x1 * x2, x2.exp()),
         (False, False, False, None, "theta(x_1) is not group-like")),
        ((twisted, x2.exp()),
         (False, True, False, None, "theta(x_1) not tangential: target is not "
                                    "conjugate to X1: obstruction in degree 3")),
        # the group-likeness verdict outranks an earlier tangential failure
        ((twisted, x2.exp() + x1 * x2),
         (False, False, False, None, "theta(x_2) is not group-like")),
    ]
    for images, (special, grouplike, tangential, witnesses, failure) in cases:
        report = is_special(Expansion(2, 4, images))
        assert (report.is_special, report.grouplike, report.tangential,
                report.normalized, report.witnesses, report.failure,
                report.failure_degree) == (special, grouplike, tangential, False,
                                           witnesses, failure, None)


def test_exp_expansion_is_special_for_n1():
    theta = exp_expansion(1, 4)
    report = is_special(theta)
    assert report.is_special
    assert report.witnesses[0] == TensorSeries.one(1, 4)


def test_exp_expansion_not_normalised_for_n2():
    theta = exp_expansion(2, 4)
    report = is_special(theta)
    assert report.grouplike and report.tangential
    assert not report.normalized
    assert report.failure_degree == 2
    # the degree-2 discrepancy of log theta(x1 x2) is [X1,X2]/2
    log_boundary = LieElement.from_tensor(theta.boundary_image().log())
    assert log_boundary.degree_component(2) == LieElement(
        2, {(1, 2): Fraction(1, 2)})


def test_build_special_small():
    for n, trunc in [(2, 4), (2, 5), (3, 4)]:
        theta = shared_expansion(n, trunc)
        report = is_special(theta)
        assert report.is_special
        # normalisation identity, checked directly
        target = TensorSeries.zero(n, trunc)
        for i in range(1, n + 1):
            target = target + TensorSeries.generator(n, trunc, i)
        assert theta.boundary_image() == target.exp()
        # tangential witnesses actually witness
        for i in range(1, n + 1):
            u = report.witnesses[i - 1]
            conj = u * TensorSeries.generator(n, trunc, i).exp() * u.inverse()
            assert conj == theta.images[i - 1]
            assert is_grouplike_by_coproduct(u)


def test_build_special_pinned_output():
    # sha256 of the canonical (3, 6) expansion's JSON, recorded from the
    # builder that worked at full truncation in every degree
    doc = json.dumps(shared_expansion(3, 6).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "da7a41aaedcb2d4f941911af144b6fcdf1435cbe0dac94769f60e826364632c4")


def test_build_special_n1():
    theta = build_special(1, 4)
    assert theta.images[0] == TensorSeries.generator(1, 4, 1).exp()
    # the n = 1 correction systems have no rows but keep their one unknown
    theta = build_special(1, 3, strategy="randomized", seed=1)
    assert is_special(theta).is_special


def test_randomized_builds_differ_and_verify():
    a = shared_expansion(3, 4, "randomized", 1)
    b = shared_expansion(3, 4, "randomized", 2)
    c = shared_expansion(3, 4)
    assert is_special(a).is_special and is_special(b).is_special
    assert a != b and a != c
    # determinism: the same seed rebuilds the same expansion
    assert build_special(3, 4, strategy="randomized", seed=1) == a


def test_build_special_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        build_special(2, 3, strategy="surprise")


def test_json_round_trip(tmp_path):
    theta = shared_expansion(2, 4)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta.to_json_dict()))
    again = load_expansion(str(path))
    assert again == theta


def test_magnus_integer_matches_series_route():
    theta = magnus_expansion(3, 5)
    rng = seeded(9)
    for _ in range(10):
        w = Word.of(3, [(rng.randint(1, 3), rng.choice([1, -1]))
                        for _ in range(rng.randint(0, 12))])
        assert theta.evaluate(w) == magnus_integer(3, 5, w.letters)


def test_dense_evaluation_matches_direct():
    theta = shared_expansion(2, 4)
    rng = seeded(15)
    letters = [(rng.randint(1, 2), rng.choice([1, -1])) for _ in range(60)]
    w = Word.of(2, letters)
    dense = theta.evaluate(w)  # long word: integer route
    direct = TensorSeries.one(2, 4)
    for letter in w.letters:   # one-letter words: the images and their inverses
        direct = direct * theta.evaluate(Word.of(2, [letter]))
    assert dense == direct
    assert all(type(c) is Fraction for c in direct.coeffs.values())


def test_braid_magnus_images_match_longitude_words():
    rng = seeded(4)
    for _ in range(6):
        b = random_braid(3, rng.randint(1, 6), rng)
        via_braid = braid_magnus_images(b, 4)
        ys = longitudes(b)
        via_words = [magnus_integer(3, 4, y.letters) for y in ys.words]
        assert via_braid == via_words


def test_filtration_degree():
    g12, g13 = Braid.gen(3, 1, 2), Braid.gen(3, 1, 3)
    assert filtration_degree(Braid.identity(3), 5) == 5
    assert filtration_degree(g12, 5) == 1
    assert filtration_degree(commutator(g12, g13), 5) == 2
    assert filtration_degree(commutator(g12, commutator(g12, g13)), 5) == 3


def test_filtration_degree_matches_full_truncation():
    # the early stop must agree with the lowest degree at truncation max_k
    rng = seeded(43)
    for max_k in range(1, 7):
        for _ in range(5):
            b = random_braid(3, rng.randint(0, 3), rng)
            for _ in range(rng.randint(0, 2)):
                b = commutator(b, random_braid(3, rng.randint(1, 2), rng))
            lowest = min((len(w) for image in braid_magnus_images(b, max_k)
                          for w in image.coeffs if w), default=max_k)
            assert filtration_degree(b, max_k) == lowest
            assert filtration_degree(longitudes(b), max_k) == lowest
