"""The one exact solve and the one kernel on small rational systems, and the
fraction-free rref against Fraction elimination."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringlinks import linalg

from support import column_rank, rref_reference

entries = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=1, max_value=4))


@st.composite
def systems(draw):
    """Columns of a height x width rational matrix and a solution x."""
    height = draw(st.integers(min_value=0, max_value=4))
    width = draw(st.integers(min_value=0, max_value=4))
    columns = [[draw(entries) for _ in range(height)] for _ in range(width)]
    x = [draw(entries) for _ in range(width)]
    return height, columns, x


@st.composite
def matrices(draw):
    """0-6 rows x 0-7 columns of small rationals, with zero rows, repeated
    rows and zero columns mixed in."""
    height = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=0, max_value=7))
    value = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                      st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(height):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([Fraction(0)] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(value) for _ in range(width)])
    zero_columns = draw(st.sets(st.integers(min_value=0, max_value=max(width - 1, 0))))
    return [[Fraction(0) if c in zero_columns else x for c, x in enumerate(row)]
            for row in rows]


@given(matrices())
@example([])
@example([[], []])
@example([[Fraction(0), Fraction(2, 3)], [Fraction(0), Fraction(-4, 5)]])
@settings(max_examples=300, deadline=None)
def test_rref_matches_fraction_elimination(rows):
    before = [row[:] for row in rows]
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == rref_reference(rows)
    assert all(type(x) is Fraction for row in red for x in row)
    assert rows == before


def apply(columns, x, height):
    return [sum((col[r] * c for col, c in zip(columns, x)), Fraction(0))
            for r in range(height)]


def check_solution(columns, target, sol):
    assert sol is not None and len(sol) == len(columns)
    assert apply(columns, sol, len(target)) == target


@given(systems())
@example((0, [[], []], [Fraction(1), Fraction(2)]))
@example((2, [], []))
@settings(max_examples=200, deadline=None)
def test_solve_and_kernel(system):
    height, columns, x = system
    width = len(columns)
    target = apply(columns, x, height)
    check_solution(columns, target, linalg.solve(columns, target))
    reverse = list(range(width))[::-1]
    check_solution(columns, target, linalg.solve(columns, target, reverse))

    rank = column_rank(columns)
    kernel = linalg.kernel(columns)
    assert len(kernel) == width - rank
    for v in kernel:
        assert len(v) == width and any(v)
        assert apply(columns, v, height) == [0] * height

    # a vector z with z^T A = 0 and z . t != 0 certifies that t is out of reach
    rows = [[col[r] for col in columns] for r in range(height)]
    left = linalg.kernel(rows)
    assert len(left) == height - rank
    for z in left:
        assert apply(rows, z, width) == [0] * width
        bad = [b + c for b, c in zip(target, z)]
        assert linalg.solve(columns, bad) is None
        assert linalg.solve(columns, bad, reverse) is None
