"""Shared helpers for the test suite: cached expansions, braid corpora and
reference oracles.  The oracles share no code with the library's own
decisions; the series oracles run a word-keyed Fraction kernel of their
own, with no word codes, integer numerators or in-place products."""

from __future__ import annotations

import functools
import random

from fractions import Fraction

from stringlinks import Braid, build_special, filtration_degree
from stringlinks.koszul import (ExteriorChain, boundary, exterior_basis,
                                nilpotent_basis)
from stringlinks.lie import (LieElement, bracket_map_matrix, lyndon_words,
                             standard_factorization)
from stringlinks.linalg import Q0, Q1, solve
from stringlinks.tensor import TensorSeries
from stringlinks.trees import TreeDiagram, _encode
from stringlinks.words import commutator


@functools.lru_cache(maxsize=None)
def shared_expansion(n, trunc, strategy="canonical", seed=0):
    """Session-cached special expansions (building the big ones is not free)."""
    return build_special(n, trunc, strategy=strategy, seed=seed)


def gens(n):
    return [Braid.gen(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def random_braid(n, length, rng):
    out = Braid.identity(n)
    pool = gens(n)
    for _ in range(length):
        g = rng.choice(pool)
        out = out * (g if rng.random() < 0.5 else g.inverse())
    return out


def random_filtration_braid(n, k, rng, max_tries=40):
    """A random braid with Milnor filtration level exactly >= k (and nontrivial).

    Built as nested commutators of random short braids, which lands in the
    k-th lower central series of the pure braid group; degenerate samples
    (trivial or deeper than wanted) are rejected and retried.
    """
    for _ in range(max_tries):
        out = random_braid(n, rng.randint(1, 3), rng)
        for _level in range(k - 1):
            other = random_braid(n, rng.randint(1, 2), rng)
            out = commutator(out, other)
        level = filtration_degree(out, k + 1)
        if level == k:
            return out
    raise RuntimeError(f"could not sample a level-{k} braid")


def nested_commutator_corpus(n=3):
    """Named small braids used across tests: filtration levels 1, 2, 3, 5."""
    g12, g13, g23 = Braid.gen(n, 1, 2), Braid.gen(n, 1, 3), Braid.gen(n, 2, 3)
    c2a = commutator(g12, g13)
    c2b = commutator(g12, g23)
    c2c = commutator(g13, g23)
    c3a = commutator(g12, c2a)
    c3b = commutator(c2a, g13)
    c3c = commutator(g23, c2a)
    c5 = commutator(c2a, c3a)
    return {
        "g": (g12, g13, g23),
        "level2": (c2a, c2b, c2c),
        "level3": (c3a, c3b, c3c),
        "level5": (c5,),
    }


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


# -- reference oracles -----------------------------------------------------------
#
# The library decides primitivity and group-likeness by Lyndon extraction
# (Friedrichs' criterion).  These oracles decide them from the coproduct
# for which the generators are primitive, Delta(X_i) = X_i @ 1 + 1 @ X_i,
# so tests of builders and of bch stay independent of that extraction.

def coproduct(series):
    """The truncated coproduct as a map (left word, right word) -> coeff.

    Delta(w) for a word w is the sum over all subsets S of positions of
    (w restricted to S) tensor (w restricted to the complement).
    """
    out = {}
    for w, c in series.coeffs.items():
        d = len(w)
        for mask in range(1 << d):
            left = tuple(w[k] for k in range(d) if mask >> k & 1)
            right = tuple(w[k] for k in range(d) if not mask >> k & 1)
            key = (left, right)
            v = out.get(key, Q0) + c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def is_primitive_by_coproduct(series):
    """Delta(s) = s @ 1 + 1 @ s, with zero constant term."""
    if series.constant_term() != 0:
        return False
    return all(not (left and right) for left, right in coproduct(series))


def is_grouplike_by_coproduct(series):
    """Delta(g) = g @ g through the truncation, with constant term 1."""
    if series.constant_term() != 1:
        return False
    cop = coproduct(series)
    for w1, c1 in series.coeffs.items():
        for w2, c2 in series.coeffs.items():
            if len(w1) + len(w2) > series.trunc:
                continue
            if cop.pop((w1, w2), Q0) != c1 * c2:
                return False
    # anything left over in the coproduct support must lie past the truncation
    return all(len(left) + len(right) > series.trunc for left, right in cop)


def by_degree(coeffs):
    """The terms of a word-keyed coefficient dict grouped by word length."""
    buckets = {}
    for w, c in coeffs.items():
        buckets.setdefault(len(w), []).append((w, c))
    return buckets


def convolve_words(left, right, trunc, out=None):
    """The truncated product of two series given as ``by_degree`` buckets,
    with words as tuples concatenated per term pair: a reference for the
    library's ``tensor.convolve`` on word codes."""
    out = {} if out is None else out
    for d1, terms1 in left.items():
        for d2, terms2 in right.items():
            if d1 + d2 > trunc:
                continue
            for w1, c1 in terms1:
                for w2, c2 in terms2:
                    w = w1 + w2
                    v = out.get(w, 0) + c1 * c2
                    if v:
                        out[w] = v
                    else:
                        del out[w]
    return out


@functools.lru_cache(maxsize=None)
def lyndon_tensor_reference(w):
    """Word-keyed integer tensor of the standard bracketing of a Lyndon word,
    built as ab - ba by ``convolve_words``: a reference for the library's
    ``lie._lyndon_tensor`` on word codes."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    a = by_degree(lyndon_tensor_reference(u))
    b = by_degree(lyndon_tensor_reference(v))
    out = convolve_words(a, b, len(w))
    return convolve_words(b, {len(u): [(x, -c) for x, c in a[len(u)]]}, len(w), out)


def power_series_words(coeffs, coefficients, trunc):
    """sum_m coefficients[m] * v^m through degree trunc, v the word-keyed
    series ``coeffs`` without its constant term, by ``convolve_words``."""
    right = {d: terms for d, terms in by_degree(coeffs).items() if d}
    out = {(): coefficients[0]} if coefficients[0] else {}
    power = {0: [((), 1)]}
    for m in range(1, trunc + 1):
        power = by_degree(convolve_words(power, right, trunc))
        if not power:
            break
        convolve_words(power, {0: [((), coefficients[m])]}, trunc, out)
    return out


def product_by_fractions(a, b):
    """a * b by the reference kernel, one ``Fraction`` per term pair."""
    a._check(b)
    return TensorSeries(a.n, a.trunc, convolve_words(by_degree(a.coeffs),
                                                     by_degree(b.coeffs), a.trunc))


def power_series_by_fractions(series, coefficients):
    """sum_m coefficients[m] * v^m, v the series without its constant term,
    by the reference kernel on Fraction coefficients: an oracle for ``exp``,
    ``log`` and ``inverse``."""
    return TensorSeries(series.n, series.trunc,
                        power_series_words(series.coeffs, coefficients, series.trunc))


def rref_reference(rows):
    """Reduced row echelon form and pivot columns by Fraction elimination.

    An oracle for the fraction-free ``linalg.rref``: the same pivot rule
    (leftmost column, first nonzero row at or below the current one), with
    one Fraction division per nonzero pivot-row entry and one multiply and
    subtract per cell whose column holds a nonzero entry of the pivot row
    (the other cells cannot change).
    """
    m = [row[:] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def column_rank(columns):
    """Rank of the matrix with the given columns, by the Fraction oracle."""
    if not columns:
        return 0
    return len(rref_reference([[col[r] for col in columns]
                               for r in range(len(columns[0]))])[1])


def kernel_reference(columns):
    """Kernel basis by the Fraction oracle, one vector per free column, as
    ``linalg.kernel`` returns it."""
    width = len(columns)
    height = len(columns[0]) if columns else 0
    red, pivots = rref_reference([[col[r] for col in columns] for r in range(height)])
    out = []
    for free in range(width):
        if free in pivots:
            continue
        v = [Q0] * width
        v[free] = Q1
        for k, p in enumerate(pivots):
            v[p] = -red[k][free]
        out.append(v)
    return out


def boundary_columns_reference(basis, p, d):
    """Columns of d_p on the whole internal-degree-d block, over
    ``exterior_basis`` in both degrees: the boundary of each unit p-chain.
    An oracle for ``koszul._boundary_columns``, which builds one
    multidegree part at a time."""
    codomain = exterior_basis(basis, p - 1, d)
    return [boundary(ExteriorChain(basis, p, {t: Q1})).vector(codomain)
            for t in exterior_basis(basis, p, d)]


def homology_blocks_reference(p, n, cap):
    """{d: (image basis, reps, cycles)} of H_p of the class-cap quotient by one
    elimination on each whole internal-degree block, on the Fraction oracle:
    the pivot columns of ``[image of d_{p+1} | kernel basis of d_p]``.  An
    oracle for ``HomologyBasis``, which eliminates per multidegree."""
    basis = nilpotent_basis(n, cap)
    out = {}
    for d in range(p, p * cap + 1):
        domain = exterior_basis(basis, p, d)
        if not domain:
            continue
        kernel = kernel_reference(boundary_columns_reference(basis, p, d))
        image_cols = boundary_columns_reference(basis, p + 1, d)
        candidates = image_cols + kernel
        _, pivots = rref_reference([[col[r] for col in candidates]
                                    for r in range(len(domain))])
        split = len(image_cols)
        out[d] = ([image_cols[c] for c in pivots if c < split],
                  [kernel[c - split] for c in pivots if c >= split], len(kernel))
    return out


def solve_boundary_reference(target, pivot_order="forward"):
    """A 3-chain bounding the 2-cycle ``target`` by one solve on each whole
    internal-degree block, with the pivot preference reversed for
    "backward": an oracle for ``koszul.solve_boundary``."""
    basis = target.basis
    coords = {}
    for d in target.degrees():
        columns = boundary_columns_reference(basis, 3, d)
        order = list(range(len(columns)))[::-1] if pivot_order == "backward" else None
        sol = solve(columns, target.degree_component(d).vector(exterior_basis(basis, 2, d)),
                    column_order=order)
        coords.update(zip(exterior_basis(basis, 3, d), sol))
    return ExteriorChain(basis, 3, coords)


def enumerate_trees_reference(n, degree):
    """The canonical diagrams of one degree by walking every full binary
    shape, every colouring of its leaves and every root colour: an oracle
    for ``trees.enumerate_trees``, in its order."""
    def shapes(leaves):
        if leaves == 1:
            return ["*"]
        return [(a, b) for k in range(1, leaves)
                for a in shapes(k) for b in shapes(leaves - k)]

    def colorings(shape):
        if shape == "*":
            return list(range(1, n + 1))
        return [(a, b) for a in colorings(shape[0]) for b in colorings(shape[1])]

    seen = set()
    for shape in shapes(degree):
        for root in range(1, n + 1):
            for expr in colorings(shape):
                diagram, _sign = TreeDiagram.build(n, root, expr)
                if diagram is not None:
                    seen.add(diagram)
    return tuple(sorted(seen, key=lambda t: (t.root, _encode(t.expr))))


def exp_ad(y, i, trunc):
    """exp(ad y)(X_i) through degree trunc, by Lie brackets.  Each degree of y
    brackets only the part of the term that stays within trunc, so no
    structure constant past trunc is formed."""
    n = y.n
    out = LieElement.generator(n, i)
    term = out
    fact = 1
    for m in range(1, trunc):
        term = sum((y.degree_component(d).bracket(term.degree_range(1, trunc - d))
                    for d in y.degrees()), LieElement.zero(n))
        if term.is_zero():
            break
        fact *= m
        out = out + term.scale(Fraction(1, fact))
    return out


def conjugating_element_reference(target, i, max_degree):
    """The normalised Y with exp(ad Y)(X_i) = target through degree max_degree + 1.

    An oracle for ``lie.conjugating_element`` by elimination in the Lie
    algebra: the degree-(d+1) component of the equation is the linear
    system [X_i, u] = -residue for the degree-d part u of Y, solved on the
    columns (i, w) of ``bracket_map_matrix``; its kernel is X_i in degree 1
    (dropped by the normalisation) and trivial above.  Raises ValueError,
    with the library's messages, when some degree is inconsistent.
    """
    n = target.n
    if target.degree_component(1) != LieElement.generator(n, i):
        raise ValueError(f"target is not conjugate to X{i}: degree-1 part differs")
    y = LieElement.zero(n)
    for d in range(1, max_degree + 1):
        residue = (target - exp_ad(y, i, d + 1)).degree_component(d + 1)
        width = len(lyndon_words(n, d))
        sol = solve(bracket_map_matrix(n, d)[(i - 1) * width:i * width],
                    (-residue).vector(lyndon_words(n, d + 1)))
        if sol is None:
            raise ValueError(f"target is not conjugate to X{i}: "
                             f"obstruction in degree {d + 1}")
        update = dict(zip(lyndon_words(n, d), sol))
        if d == 1:
            update.pop((i,), None)  # normalisation: no X_i component
        y = y + LieElement(n, update)
    return y
