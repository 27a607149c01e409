"""Colored tree Jacobi diagrams modulo antisymmetry; comm, eta and fission.

A diagram of degree l is a connected tree with l+1 univalent leaves, each
carrying a color in {1..n}, and l-1 trivalent vertices, each carrying a
cyclic order of its three edges.  Diagrams are stored rooted at a leaf as
a presentation ``(root_color, expr)`` where ``expr`` is either a color or
an ordered pair ``(left, right)``; the pair reads as the bracket
``[left, right]`` and encodes the counterclockwise cyclic order
``(parent, right, left)`` at its vertex.  Re-rooting is therefore
sign-free and deterministic:

    entering a node from the parent edge p with children (L, R),
    re-rooting through L yields children (R, p-branch),
    re-rooting through R yields children (p-branch, L).

Antisymmetry is normal-formed: swapping the children of a node flips the
sign, and the canonical representative is the lexicographically least
presentation over all leaf rootings with children sorted.  A diagram
whose canonicalisation meets an exact symmetry is zero (T = -T).  The IHX
relation is NOT normal-formed; ``enumerate_trees`` returns a spanning set
and all quotient-level questions are settled by linear algebra on eta
images, which is safe because eta kills IHX relators (property-tested).

``comm`` assigns to a rooted diagram the iterated Lie bracket of its leaf
colors, ``eta`` sums col(v) (x) comm over all rootings, and ``fission``
splits the diagram at each trivalent vertex r into the wedge
comm(branch 3) ^ comm(branch 2) ^ comm(branch 1) of its three branches
numbered along the cyclic order.  With these conventions the boundary of
a fission chain equals sum_v col(v) ^ comm(T_v) exactly, which the
acceptance suite checks for every enumerated tree.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .koszul import ExteriorChain, NilpotentBasis
from .lie import HTensorLie, LieElement
from .linalg import Combination, add_to
from .words import ScaleError, Value

MAX_COLORS = 4
MAX_DEGREE = 5


def _check_expr(n: int, expr) -> int:
    """Validate an expression and return its leaf count."""
    if isinstance(expr, int):
        if not 1 <= expr <= n:
            raise ValueError(f"leaf color {expr} out of range 1..{n}")
        return 1
    if isinstance(expr, tuple) and len(expr) == 2:
        return _check_expr(n, expr[0]) + _check_expr(n, expr[1])
    raise ValueError(f"malformed tree expression {expr!r}")


def _encode(expr) -> tuple:
    if isinstance(expr, int):
        return ("L", expr)
    return ("N", _encode(expr[0]), _encode(expr[1]))


def _sort_expr(expr):
    """Child-sorted form, its ``_encode`` code and the accumulated antisymmetry
    sign, in one pass; (None, None, 0) if zero."""
    if isinstance(expr, int):
        return expr, ("L", expr), 1
    left, e_left, s_left = _sort_expr(expr[0])
    right, e_right, s_right = _sort_expr(expr[1])
    if left is None or right is None or e_left == e_right:
        return None, None, 0
    sign = s_left * s_right
    if e_left > e_right:
        return (right, left), ("N", e_right, e_left), -sign
    return (left, right), ("N", e_left, e_right), sign


def _walk(node, context):
    """Each node of a presentation with its context branch, in pre-order.

    Called as ``_walk(expr, root)``; the context of a node is the rest of
    the tree seen from it, re-rooted through its parent edge.
    """
    yield node, context
    if not isinstance(node, int):
        left, right = node
        yield from _walk(left, (right, context))
        yield from _walk(right, (context, left))


def _presentations(root: int, expr):
    """All presentations of the abstract tree, one per leaf; sign-free."""
    return [(root, expr)] + [(node, context) for node, context in _walk(expr, root)
                             if isinstance(node, int)]


class TreeDiagram(Value):
    """Canonical representative of a nonzero tree diagram modulo AS."""

    __slots__ = ("n", "root", "expr")

    _GUARD = object()

    def __init__(self, n: int, root: int, expr: "int | tuple", _token=None):
        if _token is not TreeDiagram._GUARD:
            raise ValueError("construct diagrams via TreeDiagram.build")
        self.n = n
        self.root = root
        self.expr = expr

    @classmethod
    def build(cls, n: int, root: int, expr) -> tuple["TreeDiagram | None", int]:
        """Canonicalise a presentation; returns (diagram, sign) or (None, 0)."""
        if not 1 <= root <= n:
            raise ValueError(f"root color {root} out of range 1..{n}")
        _check_expr(n, expr)
        best_key = None
        best = None
        best_sign = 0
        signs_seen: dict[tuple, int] = {}
        for r, ex in _presentations(root, expr):
            sorted_ex, code, sign = _sort_expr(ex)
            if sorted_ex is None:
                return None, 0
            key = (r, code)
            if key in signs_seen and signs_seen[key] != sign:
                return None, 0
            signs_seen[key] = sign
            if best_key is None or key < best_key:
                best_key, best, best_sign = key, (r, sorted_ex), sign
        diagram = cls(n, best[0], best[1], _token=cls._GUARD)
        return diagram, best_sign

    @property
    def degree(self) -> int:
        return _check_expr(self.n, self.expr)

    def presentations(self) -> list[tuple[int, "int | tuple"]]:
        """One (root_color, expr) presentation per leaf, in a fixed order."""
        return _presentations(self.root, self.expr)

    def leaves(self) -> list[int]:
        """Leaf colors in presentation order."""
        return [r for r, _ in self.presentations()]

    def comm(self, leaf_index: int) -> LieElement:
        """Iterated bracket of the diagram rooted at the given leaf."""
        pres = self.presentations()
        if not 0 <= leaf_index < len(pres):
            raise ValueError(f"leaf index {leaf_index} out of range")
        _, expr = pres[leaf_index]
        return _expr_lie(self.n, expr)

    def trivalent_branches(self) -> list[tuple]:
        """For each trivalent vertex, its three branch expressions in cyclic order."""
        return [(context, node[1], node[0])
                for node, context in _walk(self.expr, self.root)
                if not isinstance(node, int)]

    def to_dot(self, name: str = "tree") -> str:
        """Graphviz rendering; leaves are labelled circles, internal vertices
        points, and the out-edge order at each internal vertex encodes the
        cyclic order (parent, right, left) counterclockwise."""
        lines = [f"graph {name} {{", "  node [fontsize=10];"]
        counter = [0]

        def fresh(kind: str) -> str:
            counter[0] += 1
            return f"{kind}{counter[0]}"

        def emit(node, parent: str):
            if isinstance(node, int):
                vid = fresh("leaf")
                lines.append(f'  {vid} [shape=circle, label="{node}"];')
                lines.append(f"  {parent} -- {vid};")
                return
            vid = fresh("v")
            lines.append(f'  {vid} [shape=point];')
            lines.append(f"  {parent} -- {vid};")
            emit(node[0], vid)
            emit(node[1], vid)

        rid = fresh("leaf")
        lines.append(f'  {rid} [shape=circle, label="{self.root}"];')
        emit(self.expr, rid)
        lines.append("}")
        return "\n".join(lines)

    def __str__(self) -> str:
        def fmt(e):
            if isinstance(e, int):
                return str(e)
            return f"[{fmt(e[0])},{fmt(e[1])}]"
        return f"<{self.root}|{fmt(self.expr)}>"


@functools.lru_cache(maxsize=None)
def _expr_lie(n: int, expr) -> LieElement:
    if isinstance(expr, int):
        return LieElement.generator(n, expr)
    return _expr_lie(n, expr[0]).bracket(_expr_lie(n, expr[1]))


class TreeCombination(Combination):
    """A formal rational combination of canonical tree diagrams."""

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs: dict[TreeDiagram, Fraction] | None = None):
        self.n = n
        super().__init__(coeffs)

    def _degree(self, diagram: TreeDiagram) -> int:
        return diagram.degree

    def add_tree(self, root: int, expr, coeff) -> "TreeCombination":
        """Add coeff times the presented tree (canonicalising, tracking sign)."""
        diagram, sign = TreeDiagram.build(self.n, root, expr)
        return self if diagram is None else self.add_diagram(diagram, sign * Fraction(coeff))

    def add_diagram(self, diagram: TreeDiagram, coeff) -> "TreeCombination":
        return self + TreeCombination(self.n, {diagram: Fraction(coeff)})

    def sorted_terms(self) -> list[tuple[TreeDiagram, Fraction]]:
        return sorted(self.coeffs.items(),
                      key=lambda t: (t[0].degree, t[0].root, _encode(t[0].expr)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return "\n".join(f"{c} * {t}" for t, c in self.sorted_terms())


def eta(diagram: TreeDiagram) -> HTensorLie:
    """sum over leaves v of col(v) (x) comm of the diagram rooted at v."""
    coeffs: dict = {}
    for color, expr in diagram.presentations():
        for w, c in _expr_lie(diagram.n, expr).coeffs.items():
            add_to(coeffs, (color, w), c)
    return HTensorLie(diagram.n, coeffs)


def eta_combination(comb: TreeCombination) -> HTensorLie:
    out = HTensorLie.zero(comb.n)
    for diagram, c in comb.coeffs.items():
        out = out + eta(diagram).scale(c)
    return out


@functools.lru_cache(maxsize=None)
def _shapes(leaf_count: int) -> tuple:
    """All full binary tree shapes with the given number of leaves."""
    if leaf_count == 1:
        return ("*",)
    out = []
    for k in range(1, leaf_count):
        for a in _shapes(k):
            for b in _shapes(leaf_count - k):
                out.append((a, b))
    return tuple(out)


def _colorings(n: int, shape):
    if shape == "*":
        for c in range(1, n + 1):
            yield c
    else:
        for a in _colorings(n, shape[0]):
            for b in _colorings(n, shape[1]):
                yield (a, b)


@functools.lru_cache(maxsize=None)
def enumerate_trees(n: int, degree: int) -> tuple[TreeDiagram, ...]:
    """All nonzero canonical diagrams of the given degree (a spanning set).

    The enumeration walks every rooted shape and coloring and keeps the
    distinct canonical forms, so it spans the diagram space modulo AS by
    construction; spanning modulo IHX as well is certified in the tests by
    comparing the eta-image rank with the bracket-kernel dimension.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if n > MAX_COLORS or degree > MAX_DEGREE:
        raise ScaleError(f"enumeration supported for n <= {MAX_COLORS}, "
                         f"degree <= {MAX_DEGREE}")
    seen: dict[TreeDiagram, None] = {}
    for shape in _shapes(degree):
        for root in range(1, n + 1):
            for expr in _colorings(n, shape):
                diagram, _sign = TreeDiagram.build(n, root, expr)
                if diagram is not None:
                    seen.setdefault(diagram, None)
    return tuple(sorted(seen, key=lambda t: (t.root, _encode(t.expr))))


def eta_inverse(value: HTensorLie) -> TreeCombination:
    """A tree combination with eta image equal to ``value``.

    Requires the bracket-kernel membership that characterises eta's image;
    the representative is the deterministic row-reduced solution over the
    enumerated spanning set, degree by degree.
    """
    n = value.n
    if not value.in_bracket_kernel():
        raise ValueError("value is not in the kernel of the bracket map")
    coeffs = {}
    for d in value.degrees():
        span = enumerate_trees(n, d)
        sol = linalg.solve([eta(t).coordinates(d) for t in span],
                           value.degree_component(d).coordinates(d))
        if sol is None:
            raise RuntimeError(f"enumerated degree-{d} trees failed to span; "
                               "this indicates an enumeration bug")
        coeffs.update(zip(span, sol))
    return TreeCombination(n, coeffs)


def fission(diagram: TreeDiagram, basis: NilpotentBasis) -> ExteriorChain:
    """The 3-chain sum_r comm(T_r^(3)) ^ comm(T_r^(2)) ^ comm(T_r^(1)).

    Branch Lie elements of degree beyond the basis cap are dropped, which
    is exactly the reduction of the chain into the nilpotent quotient.
    """
    if basis.n != diagram.n:
        raise ValueError("color count does not match the basis")
    chain = ExteriorChain.zero(basis, 3)
    for b1, b2, b3 in diagram.trivalent_branches():
        l1 = _expr_lie(diagram.n, b1)
        l2 = _expr_lie(diagram.n, b2)
        l3 = _expr_lie(diagram.n, b3)
        chain = chain + ExteriorChain.wedge(basis, [l3, l2, l1])
    return chain


def fission_combination(comb: TreeCombination, basis: NilpotentBasis) -> ExteriorChain:
    out = ExteriorChain.zero(basis, 3)
    for diagram, c in comb.coeffs.items():
        out = out + fission(diagram, basis).scale(c)
    return out
