"""Free group words, pure braid words, the Artin action and longitudes.

Conventions, fixed once and used consistently everywhere:

* ``F_n`` has generators ``x_1, ..., x_n`` (n >= 2).  ``Word(n, letters)``
  is the one constructor of a word: it checks every letter of any sequence
  of ``(generator, exponent)`` pairs, exponent ``+1`` or ``-1``, and stores
  its free reduction as a tuple.

* The pure braid group on n strands is generated by the band generators
  ``A_ij`` (1 <= i < j <= n).  The positive generator acts on the free
  generators by

      x_i  |->  (x_i x_j) x_i (x_i x_j)^-1
      x_j  |->  x_i x_j x_i^-1
      x_k  |->  [x_i, x_j] x_k [x_i, x_j]^-1      (i < k < j)
      x_k  |->  x_k                               (otherwise)

  where ``[a, b] = a b a^-1 b^-1``.  This action fixes the boundary word
  ``x_1 ... x_n`` and satisfies the standard conjugation relation table;
  the test suite asserts both.  The opposite handedness would flip the
  sign of odd-degree invariants downstream.

* Braid words compose by concatenation and ``artin_action`` is a
  homomorphism for that order: ``Art(b1 * b2) = Art(b1) o Art(b2)``.
  Concretely the rightmost letter of a braid word is substituted first.

* Longitudes: ``Art(L)(x_i) = y_i x_i y_i^-1`` with ``y_i`` normalised so
  that its exponent sum in ``x_i`` is zero, which pins ``y_i`` uniquely.
"""

from __future__ import annotations

import itertools

Letter = tuple[int, int]          # (generator index, +-1)
BraidLetter = tuple[int, int, int]  # (i, j, +-1) with i < j

# most letters a braid word, or the words of an Artin action in progress,
# may hold before the work is refused; level-3 braids of 20 letters have
# longitudes of 2 * 10**6 letters
MAX_LETTERS = 3 * 10**6


class ScaleError(ValueError):
    """Work beyond the supported desk scale, refused before it is done."""


class Value:
    """An immutable value compared and hashed by its slots.

    Instances of different classes never compare equal.  The hash is kept
    once formed: a cache lookup on a long word would rehash every letter.
    """

    __slots__ = ("_hash",)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if not hasattr(self, "_hash"):
            self._hash = hash(self._key())
        return self._hash


def _reduce(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    top = None  # out[-1] in a local: this loop is most of the Artin action
    for letter in letters:
        if top is not None and top[0] == letter[0] and top[1] == -letter[1]:
            out.pop()
            top = out[-1] if out else None
        else:
            top = tuple(letter)
            out.append(top)
    return tuple(out)


class Word(Value):
    """A word in the free group on ``x_1 .. x_n``: any letter sequence, stored
    freely reduced.  Each letter is checked first, so an invalid one cannot
    cancel against its inverse and pass."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters):
        if n < 2:
            raise ValueError("free group rank must be at least 2")
        letters = tuple(letters)
        for g, e in letters:
            if not 1 <= g <= n:
                raise ValueError(f"generator index {g} out of range 1..{n}")
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")
        self.n = n
        self.letters = _reduce(letters)

    @classmethod
    def identity(cls, n: int) -> "Word":
        return cls(n, ())

    @classmethod
    def gen(cls, n: int, i: int, exponent: int = 1) -> "Word":
        if exponent == 0:
            return cls.identity(n)
        e = 1 if exponent > 0 else -1
        return cls(n, tuple((i, e) for _ in range(abs(exponent))))

    def __mul__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Word(self.n, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.n, tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(self.n, base.letters * abs(k))

    def exponent_sum(self, i: int) -> int:
        return sum(e for g, e in self.letters if g == i)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for (g, e), run in itertools.groupby(self.letters):
            k = e * sum(1 for _ in run)
            parts.append(f"x{g}" if k == 1 else f"x{g}^{k}")
        return "*".join(parts)


class Braid(Value):
    """A word in the band generators ``A_ij`` of the pure braid group."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[BraidLetter, ...]):
        self.n = n
        self.letters = letters
        if self.n < 2:
            raise ValueError("braid group needs at least 2 strands")
        for i, j, e in self.letters:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"bad band generator indices ({i},{j}) for n={self.n}")
            if e not in (1, -1):
                raise ValueError(f"braid letter exponent must be +-1, got {e}")

    @classmethod
    def identity(cls, n: int) -> "Braid":
        return cls(n, ())

    @classmethod
    def gen(cls, n: int, i: int, j: int, exponent: int = 1) -> "Braid":
        if exponent == 0:
            return cls.identity(n)
        e = 1 if exponent > 0 else -1
        return cls(n, tuple((i, j, e) for _ in range(abs(exponent))))

    def __mul__(self, other: "Braid") -> "Braid":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return Braid(self.n, self.letters + other.letters)

    def inverse(self) -> "Braid":
        return Braid(self.n, tuple((i, j, -e) for i, j, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Braid":
        base = self if k >= 0 else self.inverse()
        return Braid(self.n, base.letters * abs(k))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"A({i},{j})" if e == 1 else f"A({i},{j})^-1"
                        for i, j, e in self.letters)


def commutator(a: Word | Braid, b: Word | Braid) -> Word | Braid:
    """a b a^-1 b^-1, for words and braids alike."""
    return a * b * a.inverse() * b.inverse()


def _generator_images(n: int, i: int, j: int, e: int) -> dict[int, Word]:
    """Images of x_1..x_n under Art(A_ij^e); identity entries are omitted."""
    xi, xj = Word.gen(n, i), Word.gen(n, j)
    img: dict[int, Word] = {}
    if e == 1:
        img[i] = xi * xj * xi * xj.inverse() * xi.inverse()
        img[j] = xi * xj * xi.inverse()
        conj = commutator(xi, xj)
    else:
        img[i] = xj.inverse() * xi * xj
        img[j] = xj.inverse() * xi.inverse() * xj * xi * xj
        conj = commutator(xj.inverse(), xi.inverse())
    for k in range(i + 1, j):
        img[k] = conj * Word.gen(n, k) * conj.inverse()
    return img


def artin_action(braid: Braid, word: Word, limit: int = MAX_LETTERS) -> Word:
    """Image of ``word`` under the Artin automorphism of ``braid``.

    Raises ScaleError as soon as the word in progress holds more than
    ``limit`` letters: images grow exponentially with commutator depth.
    """
    if braid.n != word.n:
        raise ValueError("strand count and free group rank differ")
    letters = word.letters
    for i, j, e in reversed(braid.letters):
        images = {}
        for g, piece in _generator_images(braid.n, i, j, e).items():
            images[(g, 1)] = piece.letters
            images[(g, -1)] = piece.inverse().letters
        letters = _reduce(itertools.chain.from_iterable(
            images.get(letter, (letter,)) for letter in letters))
        if len(letters) > limit:
            raise ScaleError(f"the Artin action of the braid builds a word of "
                             f"more than {limit} letters")
    return Word(braid.n, letters)


class LongitudeTuple(Value):
    """The longitude words ``(y_1, ..., y_n)`` determining an Artin-type action.

    ``truncation`` is None for braid-derived tuples (the boundary condition
    then holds exactly) and an integer K for user-supplied string-link
    data, in which case consumers may only trust the action modulo the
    lower central series term of index K+1.
    """

    __slots__ = ("n", "words", "truncation")

    def __init__(self, n: int, words: tuple[Word, ...],
                 truncation: int | None = None):
        self.n = n
        self.words = words
        self.truncation = truncation
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation level must be >= 1")
        if len(self.words) != self.n:
            raise ValueError("need exactly one longitude per strand")
        for i, y in enumerate(self.words, start=1):
            if y.n != self.n:
                raise ValueError("longitude rank mismatch")
            if y.exponent_sum(i) != 0:
                raise ValueError(f"longitude y_{i} is not normalised "
                                 f"(exponent sum of x_{i} must be 0)")

    def substituted(self, word: Word) -> Word:
        """Image of ``word`` under x_i |-> y_i x_i y_i^-1."""
        pieces = []
        for g, ex in word.letters:
            y = self.words[g - 1]
            conj = y * Word.gen(self.n, g) * y.inverse()
            pieces.append(conj.letters if ex == 1 else conj.inverse().letters)
        return Word(self.n, itertools.chain.from_iterable(pieces))

    def boundary_defect(self) -> Word:
        """The word ``phi(x_1...x_n) (x_1...x_n)^-1``; trivial for braid data."""
        boundary = Word(self.n, ((k, 1) for k in range(1, self.n + 1)))
        return self.substituted(boundary) * boundary.inverse()


def longitudes(braid: Braid) -> LongitudeTuple:
    """Extract the normalised longitude words of a pure braid.

    The image of each generator under the Artin action is a reduced
    conjugate y x_i y^-1, so y is its first half, then normalised by a
    power of x_i.  An image of any other form signals a bug, not bad input,
    since every valid braid word acts by such conjugations.  Raises
    ScaleError once the words in progress hold more than MAX_LETTERS
    letters in total.
    """
    n = braid.n
    ys = []
    for i in range(1, n + 1):
        budget = MAX_LETTERS - sum(len(y.letters) for y in ys)
        letters = artin_action(braid, Word.gen(n, i), budget).letters
        half = letters[:len(letters) // 2]
        # y^-1 from half's own letter tuples, not one new tuple per letter
        flip = {(g, e): (g, -e) for g, e in set(half)}
        if letters != half + ((i, 1),) + tuple(map(flip.get, reversed(half))):
            raise RuntimeError(f"bug in the Artin action: x_{i} maps to a non-conjugate")
        power = Word.gen(n, i, -sum(e for g, e in half if g == i))
        ys.append(Word(n, half + power.letters))
    return LongitudeTuple(n, tuple(ys))


def pure_braid_relations(n: int) -> list[tuple[Braid, Braid]]:
    """All defining relation instances ``(A_rs A_ij A_rs^-1, rhs)`` for PB_n."""
    rels = []
    gens = list(itertools.combinations(range(1, n + 1), 2))
    A = Braid.gen
    for (r, s), (i, j) in itertools.product(gens, gens):
        lhs = A(n, r, s) * A(n, i, j) * A(n, r, s, -1)
        if s < i or (i < r and s < j):
            rhs = A(n, i, j)
        elif s == i:
            rhs = A(n, r, j, -1) * A(n, i, j) * A(n, r, j)
        elif i == r and s < j:
            rhs = A(n, r, j, -1) * A(n, s, j, -1) * A(n, i, j) * A(n, s, j) * A(n, r, j)
        elif r < i < s < j:
            rhs = (A(n, r, j, -1) * A(n, s, j, -1) * A(n, r, j) * A(n, s, j)
                   * A(n, i, j)
                   * A(n, s, j, -1) * A(n, r, j, -1) * A(n, s, j) * A(n, r, j))
        else:
            continue
        rels.append((lhs, rhs))
    return rels
