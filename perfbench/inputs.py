"""Seeded inputs: braid words in the CLI grammar and a longitude tuple.

Plain Python that never imports the program, so the inputs of a seed do
not depend on the code under test.  A braid is a pair (text, letters):
``text`` uses the CLI grammar (``A(i,j)^e`` and ``[w1 , w2]``) and
``letters`` lists its band generators as (i, j, +-1).

Filtration levels are exact by construction.  The associated graded Lie
algebra of PB_3 is free on t12, t13 plus the central t12 + t13 + t23, so
[t12, t13] = [t13, t23] = -[t12, t23] spans degree 2 and every
[t_z, [t_x, t_y]] with x != y is nonzero in degree 3.  A product of
commutators whose degree-2 classes share one sign has level exactly 2;
one nested commutator has level exactly 3.
"""

from __future__ import annotations

import itertools

PAIRS3 = ((1, 2), (1, 3), (2, 3))
# sign of [t_x, t_y] relative to [t12, t13]
_SIGN3 = {((1, 2), (1, 3)): 1, ((1, 3), (2, 3)): 1, ((1, 2), (2, 3)): -1}


def _sign(x, y):
    s = _SIGN3.get((x, y))
    return s if s is not None else -_SIGN3[(y, x)]


def _inverse(letters):
    return [(a, b, -e) for a, b, e in reversed(letters)]


def gen(pair, power=1):
    i, j = pair
    text = f"A({i},{j})" if power == 1 else f"A({i},{j})^{power}"
    return text, [(i, j, 1 if power > 0 else -1)] * abs(power)


def commutator(a, b):
    (ta, la), (tb, lb) = a, b
    return f"[{ta} , {tb}]", la + lb + _inverse(la) + _inverse(lb)


def product(braids):
    return (" ".join(t for t, _ in braids),
            [letter for _, letters in braids for letter in letters])


def _power(rng):
    return rng.choice((1, 2)) * rng.choice((1, -1))


def level1_braid(rng, n, length):
    """A random word whose linking numbers are not all zero."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    letters = [(rng.choice(pairs), rng.choice((1, -1))) for _ in range(length)]
    sums = {}
    for pair, e in letters:
        sums[pair] = sums.get(pair, 0) + e
    if not any(sums.values()):
        pair, e = letters[0]
        letters[0] = (pair, -e)
    return product([gen(p, e) for p, e in letters])


def level2_braid(rng, max_length=20):
    """A product of 1-3 commutators of PB_3 generators of one degree-2 sign."""
    factors, length = [], 0
    while not factors or (length < 8 and rng.random() < 0.7):
        x, y = rng.sample(PAIRS3, 2)
        a = _power(rng)
        b = rng.choice((1, 2)) * (1 if a * _sign(x, y) > 0 else -1)
        size = 2 * (abs(a) + abs(b))
        if length + size > max_length:
            break
        factors.append(commutator(gen(x, a), gen(y, b)))
        length += size
    return product(factors)


def level3_braid(rng, powers=(1, 2)):
    """One nested commutator [A_z^c, [A_x^a, A_y^b]] of PB_3 with x != y."""
    x, y = rng.sample(PAIRS3, 2)
    z = rng.choice(PAIRS3)
    p = lambda: rng.choice(powers) * rng.choice((1, -1))  # noqa: E731
    return commutator(gen(z, p()), commutator(gen(x, p()), gen(y, p())))


# -- longitudes, by the band convention of the program's README -------------

def _winv(word):
    return [(g, -e) for g, e in reversed(word)]


def _images(i, j, e):
    xi, xj = [(i, 1)], [(j, 1)]
    if e == 1:
        img = {i: xi + xj + xi + _winv(xj) + _winv(xi), j: xi + xj + _winv(xi)}
        conj = xi + xj + _winv(xi) + _winv(xj)
    else:
        img = {i: _winv(xj) + xi + xj, j: _winv(xj) + _winv(xi) + xj + xi + xj}
        conj = _winv(xj) + _winv(xi) + xj + xi
    for k in range(i + 1, j):
        img[k] = conj + [(k, 1)] + _winv(conj)
    return {g: (w, _winv(w)) for g, w in img.items()}


def _push(out, word):
    """Append ``word`` to the reduced word ``out``, cancelling as it goes."""
    for g, e in word:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))


def longitudes(n, letters, limit=None):
    """Normalised y_i with Art(b)(x_i) = y_i x_i y_i^-1.

    Returns None as soon as the words in progress hold more than ``limit``
    letters in total.
    """
    images = {key: _images(*key) for key in set(letters)}
    ys = []
    for i in range(1, n + 1):
        budget = None if limit is None else limit - sum(map(len, ys))
        word = [(i, 1)]
        for key in reversed(letters):
            img = images[key]
            out = []
            for g, ex in word:
                piece = img.get(g)
                if piece is None:
                    _push(out, ((g, ex),))
                else:
                    _push(out, piece[0] if ex == 1 else piece[1])
            word = out
            if budget is not None and len(word) > budget:
                return None
        y = word[:(len(word) - 1) // 2]
        shift = -sum(ex for g, ex in y if g == i)
        _push(y, [(i, 1 if shift > 0 else -1)] * abs(shift))
        ys.append(y)
    return ys


def longitude_tuple(rng, low=1500, high=2600):
    """Longitudes of a level-3 braid with ``low``..``high`` letters in total.

    Every nested commutator with unit powers is tried, so the work does not
    depend on the seed; the seed picks one of those in the size window.
    Exact longitudes satisfy the boundary condition, so the truncation
    level is null.
    """
    shapes = []
    for (x, y), z in itertools.product(itertools.permutations(PAIRS3, 2), PAIRS3):
        for a, b, c in itertools.product((1, -1), repeat=3):
            braid = commutator(gen(z, c), commutator(gen(x, a), gen(y, b)))
            ys = longitudes(3, braid[1], limit=high)
            if ys is not None and low <= sum(map(len, ys)) <= high:
                shapes.append((braid, ys))
    braid, ys = rng.choice(shapes)
    doc = {"n": 3, "truncation": None, "words": [[list(l) for l in y] for y in ys]}
    return braid[0], doc
