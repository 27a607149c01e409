"""The one exact solve and the one kernel, on small integer systems."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringlinks import linalg

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw):
    """Columns of a height x width integer matrix and a solution x."""
    height = draw(st.integers(min_value=0, max_value=4))
    width = draw(st.integers(min_value=0, max_value=4))
    columns = [[Fraction(draw(entries)) for _ in range(height)] for _ in range(width)]
    x = [Fraction(draw(entries)) for _ in range(width)]
    return height, columns, x


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

    rank = linalg.rank(columns)
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
