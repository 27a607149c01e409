"""The zero-free arithmetic that every sparse value type shares."""

import itertools
from fractions import Fraction

import pytest

from stringlinks.koszul import (ExteriorChain, HomologyClass, exterior_basis,
                                homology, nilpotent_basis)
from stringlinks.lie import HTensorLie, LieElement, h_tensor_l_basis, lyndon_words
from stringlinks.linalg import Combination
from stringlinks.tensor import TensorSeries
from stringlinks.trees import TreeCombination, enumerate_trees

from support import seeded


def _random_coeffs(keys, rng):
    """A few keys with small nonzero coefficients, never empty."""
    picked = rng.sample(keys, min(len(keys), rng.randint(1, 6)))
    return {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            for k in picked}


def tensor_series(space, rng):
    n, trunc = space
    words = [w for d in range(trunc + 1)
             for w in itertools.product(range(1, n + 1), repeat=d)]
    return TensorSeries(n, trunc, _random_coeffs(words, rng))


def lie_element(space, rng):
    (n,) = space
    words = [w for d in range(1, 5) for w in lyndon_words(n, d)]
    return LieElement(n, _random_coeffs(words, rng))


def h_tensor_l(space, rng):
    (n,) = space
    keys = [key for d in range(1, 4) for key in h_tensor_l_basis(n, d)]
    return HTensorLie(n, _random_coeffs(keys, rng))


def exterior_chain(space, rng):
    (n, cap), p = space
    basis = nilpotent_basis(n, cap)
    tuples = [t for d in range(p, p * cap + 1) for t in exterior_basis(basis, p, d)]
    return ExteriorChain(basis, p, _random_coeffs(tuples, rng))


def tree_combination(space, rng):
    (n,) = space
    trees = [t for d in range(1, 4) for t in enumerate_trees(n, d)]
    return TreeCombination(n, _random_coeffs(trees, rng))


def homology_class(space, rng):
    basis = homology(*space)
    return HomologyClass(basis, _random_coeffs(range(basis.dimension), rng))


# each type with two spaces that must not mix
CASES = [
    (tensor_series, (2, 3), (2, 4)),
    (lie_element, (2,), (3,)),
    (h_tensor_l, (2,), (3,)),
    (exterior_chain, ((2, 2), 2), ((2, 2), 3)),
    (tree_combination, (2,), (3,)),
    (homology_class, (3, 3, 2), (3, 2, 3)),
]
IDS = ["TensorSeries", "LieElement", "HTensorLie", "ExteriorChain",
       "TreeCombination", "HomologyClass"]


@pytest.mark.parametrize("make,space,other_space", CASES, ids=IDS)
@pytest.mark.parametrize("seed", range(3))
def test_shared_arithmetic(make, space, other_space, seed):
    rng = seeded(seed)
    x, y = make(space, rng), make(space, rng)
    assert isinstance(x, Combination)

    # values of different spaces or types never mix
    stranger = make(other_space, rng)
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError):
            op(x, stranger)
    for other_make, other, _ in CASES:
        if other_make is not make:
            with pytest.raises(ValueError):
                x + other_make(other, rng)

    # no zero coefficient is ever stored
    assert (x - x).coeffs == {} and (x - x).is_zero()
    assert x.scale(0).is_zero() and x.scale(0) == x - x
    assert type(x).zero(*x._space()) == x.scale(0)
    assert (x + -x).coeffs == {}
    assert all((x + y).coeffs.values())
    assert x + y == y + x
    assert (x + y) - y == x
    assert x.scale(Fraction(3, 2)) == x + x.scale(Fraction(1, 2))

    # the degree components sum back to the value
    total = x.scale(0)
    for d in x.degrees():
        component = x.degree_component(d)
        assert component.degrees() == [d]
        total = total + component
    assert total == x
    assert x.degree_component(max(x.degrees()) + 1).is_zero()
    assert x.min_degree() == min(x.degrees()) and x.max_degree() == max(x.degrees())
    assert x.scale(0).min_degree() is None

    # equal values hash equal, however they were reached
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert len({x, same, y + x - y}) == 1

    # vector reads the coefficients over an ordered basis, zeros included,
    # and refuses a term outside it; dict(zip(...)) is the way back
    keys = tuple(dict.fromkeys([*x.coeffs, *y.coeffs]))
    vec = x.vector(keys)
    assert len(vec) == len(keys) and all(type(c) is Fraction for c in vec)
    assert x._new(dict(zip(keys, vec))) == x
    with pytest.raises(ValueError):
        x.vector(keys[1:])
