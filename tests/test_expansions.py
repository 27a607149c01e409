import hashlib
import json
from fractions import Fraction

import pytest

from stringlinks.cli import load_expansion
from stringlinks.expansions import (Expansion, braid_magnus_images, build_special,
                                    exp_expansion, filtration_degree,
                                    is_grouplike_expansion, is_special,
                                    magnus_expansion, magnus_integer)
from stringlinks import expansions, lie, linalg
from stringlinks.lie import LieElement, lyndon_words
from stringlinks.tensor import TensorSeries
from stringlinks.words import Braid, Word, commutator, longitudes

from support import (conjugating_element_reference, is_grouplike_by_coproduct,
                     random_braid, seeded, shared_expansion)


def test_magnus_images():
    theta = magnus_expansion(2, 3)
    one = TensorSeries.one(2, 3)
    assert theta.images[0] == one + TensorSeries.generator(2, 3, 1)
    assert theta.evaluate(Word.identity(2)) == one


def test_evaluate_is_multiplicative():
    theta = magnus_expansion(3, 4)
    rng = seeded(2)
    for _ in range(10):
        a = Word(3, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(5)])
        b = Word(3, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(5)])
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


@pytest.mark.parametrize("image", [
    TensorSeries(2, 3, {(): Fraction(2), (1,): Fraction(1)}),
    TensorSeries(2, 3, {(): Fraction(1), (1,): Fraction(1), (2,): Fraction(1, 3)}),
    TensorSeries(2, 3, {(): Fraction(1), (1,): Fraction(1, 2)}),
    TensorSeries.generator(2, 3, 1).exp() * TensorSeries.generator(2, 3, 2).exp(),
], ids=["fraction-constant-2", "fraction-extra-degree-1", "fraction-half-x1",
        "kernel-product"])
def test_magnus_condition_is_checked_on_every_image(image):
    # images born from Fractions and from the series kernel are checked alike
    exps = tuple(TensorSeries.generator(2, 3, i).exp() for i in (1, 2))
    with pytest.raises(ValueError) as info:
        Expansion(2, 3, (image, exps[1]))
    assert str(info.value) == "image of x_1 violates the Magnus condition 1 + X_1 + O(2)"
    with pytest.raises(ValueError) as info:
        Expansion(2, 3, (exps[0], image))
    assert str(info.value) == "image of x_2 violates the Magnus condition 1 + X_2 + O(2)"
    # 1 + X_1 + O(2) with a rational tail passes, whatever its denominators
    tail = TensorSeries(2, 3, {(1, 2): Fraction(1, 3), (2, 2, 1): Fraction(-5, 7)})
    assert Expansion(2, 3, (exps[0] * (TensorSeries.one(2, 3) + tail), exps[1])).n == 2


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
    # the boundary image is the in-order product of the images, at n = 1 too
    for n in (1, 2, 3):
        theta = shared_expansion(n, 4)
        product = TensorSeries.one(n, 4)
        for image in theta.images:
            product = product * image
        assert theta.boundary_image() == product


def test_build_special_pinned_output():
    # sha256 of the canonical (3, 6) expansion's JSON, recorded from the
    # builder that worked at full truncation in every degree
    doc = json.dumps(shared_expansion(3, 6).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "da7a41aaedcb2d4f941911af144b6fcdf1435cbe0dac94769f60e826364632c4")


@pytest.mark.parametrize("n,trunc,seed,digest", [
    (2, 7, 1, "1f7f2f0308e478fe81614f8f5774c356545185f6163f7ee068738415b511664e"),
    (2, 7, 2, "7535e36c595cb6ab7b35e21816b119b21764c1baeaa5dba7913667d1dc52e7b5"),
    (2, 7, 3, "77375fde3de3dda847575e82fdf61be52c604b0a006962f01f15b2d0fc038f5e"),
    (3, 5, 1, "8d53c0e0c6a6bc24e15ae2dcb7b4a37fb8ec039f3d3cf2be9554506646f4bfdd"),
    (3, 5, 2, "8304cb47d0a38afac5f0b5001c9cd7a52200993278a538a6098e22a682293ecd"),
    (3, 5, 3, "3c945d15357c1bf60bf7d231e1c2793be72da0251a0390e648d2717955da8818"),
    (4, 4, 2, "c108928cd3c9f8ff3fcf06806748ca1d72c07f6079421d70078dd87a85ad5402"),
])
def test_randomized_build_pinned_output(n, trunc, seed, digest):
    # sha256 of randomized expansions' JSON, recorded from the builder that
    # multiplied out every correction factor: random kernel vectors give
    # corrections in every degree, the high ones (2m > trunc) included
    theta = build_special(n, trunc, strategy="randomized", seed=seed)
    doc = json.dumps(theta.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def speciality_reference(theta):
    """The speciality report's fields, with each conjugator found by
    elimination (``conjugating_element_reference``) and group-likeness
    decided by the coproduct."""
    n, trunc = theta.n, theta.trunc
    witnesses = []
    not_tangential = None
    for i, image in enumerate(theta.images, start=1):
        if not is_grouplike_by_coproduct(image):
            return (False, False, False, False, None, f"theta(x_{i}) is not group-like", None)
        try:
            y = conjugating_element_reference(
                LieElement.from_tensor(image.log()), i, trunc - 1)
            witnesses.append(y.to_tensor(trunc).exp())
        except ValueError as exc:
            not_tangential = not_tangential or f"theta(x_{i}) not tangential: {exc}"
    if not_tangential:
        return (False, True, False, False, None, not_tangential, None)
    target = TensorSeries(n, trunc, {(i,): Fraction(1) for i in range(1, n + 1)})
    defect = theta.boundary_image() - target.exp()
    if not defect.is_zero():
        return (False, True, True, False, tuple(witnesses), "normalised condition fails",
                defect.min_degree())
    return (True, True, True, True, tuple(witnesses), None, None)


def perturbations(theta, rng):
    """Expansions that differ from theta in one image and one degree 2..trunc:
    by a Lie factor exp(c w), by a word, and by a pair c (w - w') with w'
    the rotation of w, which cancels in the abelianisation."""
    n, trunc = theta.n, theta.trunc
    for i in range(1, n + 1):
        for d in range(2, trunc + 1):
            c = rng.choice([-2, -1, 1, 2])
            lie_word = rng.choice(lyndon_words(n, d))
            word = tuple(rng.randint(1, n) for _ in range(d))
            while n > 1 and len(set(word)) == 1:
                word = tuple(rng.randint(1, n) for _ in range(d))
            image = theta.images[i - 1]
            for changed in (
                    image * LieElement(n, {lie_word: Fraction(c)}).to_tensor(trunc).exp(),
                    image + TensorSeries.from_terms(n, trunc, [(word, c)]),
                    image + TensorSeries.from_terms(n, trunc, [(word, c),
                                                               (word[1:] + word[:1], -c)])):
                images = list(theta.images)
                images[i - 1] = changed
                yield Expansion(n, trunc, tuple(images))


def test_speciality_reports_match_reference_on_perturbations():
    rng = seeded(19)
    seen = set()
    for n, trunc in [(2, 4), (3, 4), (2, 5)]:
        for theta in perturbations(shared_expansion(n, trunc), rng):
            report = is_special(theta)
            fields = (report.is_special, report.grouplike, report.tangential,
                      report.normalized, report.witnesses, report.failure,
                      report.failure_degree)
            assert fields == speciality_reference(theta)
            seen.add((report.grouplike, report.tangential, report.normalized))
    # every verdict short of special is reached
    assert seen >= {(False, False, False), (True, False, False), (True, True, False)}


def test_speciality_check_runs_no_elimination(monkeypatch):
    theta = build_special(3, 5)
    fresh = Expansion(3, 5, theta.images)  # no report cached yet
    calls = {"solve": 0, "rref": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(linalg, name, counted)
    solved = []
    solver = lie.conjugating_element

    def spy(series, i):
        solved.append(i)
        return solver(series, i)
    # rebind every name the solver is called by, as a tracer would
    monkeypatch.setattr(lie, "conjugating_element", spy)
    monkeypatch.setattr(expansions, "conjugating_element", spy)
    assert is_special(fresh).is_special
    assert calls == {"solve": 0, "rref": 0}
    assert solved == [1, 2, 3]


@pytest.mark.parametrize("n,trunc", [(2, 3), (2, 5), (3, 3), (3, 4), (3, 5),
                                     (3, 6), (4, 3)])
@pytest.mark.parametrize("strategy,seed", [("canonical", 0), ("randomized", 3),
                                           ("randomized", 11)])
def test_builds_are_consistent_under_truncation(n, trunc, strategy, seed):
    # a build at trunc + 1 truncates to the build at trunc, so a pipeline
    # that reads theta through degree T may build at T instead of higher
    low = shared_expansion(n, trunc, strategy, seed)
    high = shared_expansion(n, trunc + 1, strategy, seed)
    assert low.images == tuple(img.truncate(trunc) for img in high.images)


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
        w = Word(3, [(rng.randint(1, 3), rng.choice([1, -1]))
                        for _ in range(rng.randint(0, 12))])
        assert theta.evaluate(w) == magnus_integer(3, 5, w.letters)


def test_dense_evaluation_matches_direct():
    theta = shared_expansion(2, 4)
    rng = seeded(15)
    letters = [(rng.randint(1, 2), rng.choice([1, -1])) for _ in range(60)]
    w = Word(2, letters)
    dense = theta.evaluate(w)  # long word: integer route
    direct = TensorSeries.one(2, 4)
    for letter in w.letters:   # one-letter words: the images and their inverses
        direct = direct * theta.evaluate(Word(2, [letter]))
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
