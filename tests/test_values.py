"""The small value classes: equality, hashing, validation messages, and
what importing the command-line interface loads."""

import os
import re
import subprocess
import sys

import pytest

import stringlinks
from stringlinks.lie import LieElement
from stringlinks.milnor import SpecialAutData
from stringlinks.morita import MoritaInput
from stringlinks.trees import TreeDiagram
from stringlinks.words import Braid, LongitudeTuple, Word

from support import shared_expansion


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # each command runs in a fresh interpreter, so these modules would
    # cost every command their import time
    src = os.path.dirname(os.path.dirname(stringlinks.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import stringlinks.cli; print(' '.join(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, check=True).stdout.split()
    assert "stringlinks.cli" in added
    assert not {"dataclasses", "inspect", "hashlib"} & set(added)


def test_values_compare_and_hash_by_their_fields():
    word = Word(3, [(1, 1), (2, -1)])
    same = Word(3, ((1, 1), (2, -1)))
    assert word == same and hash(word) == hash(same)
    assert Word(2, ((1, 1), (1, -1))) == Word.identity(2)  # stored reduced
    assert hash(word) == hash((3, ((1, 1), (2, -1))))  # keeps set orders
    assert word != Word(4, word.letters) and word != Word.gen(3, 1)
    braid = Braid.gen(3, 1, 2, 2)
    assert braid == Braid(3, ((1, 2, 1), (1, 2, 1))) and len({braid, braid ** 1}) == 1
    ys = (Word.gen(2, 2), Word.gen(2, 1))
    assert LongitudeTuple(2, ys) == LongitudeTuple(n=2, words=ys, truncation=None)
    assert LongitudeTuple(2, ys) != LongitudeTuple(2, ys, 3)
    assert hash(LongitudeTuple(2, ys, 3)) == hash((2, ys, 3))


def test_values_of_different_classes_never_compare_equal():
    assert Word.identity(2) != Braid.identity(2)
    assert Word.identity(2) != (2, ())
    assert Braid.identity(2) != LongitudeTuple(2, (Word.identity(2),) * 2)


def test_tree_diagram_equality_ignores_the_guard():
    first, sign = TreeDiagram.build(3, 1, (2, 3))
    second, other_sign = TreeDiagram.build(3, 1, (3, 2))
    assert first is not second and first == second and sign == -other_sign
    assert hash(first) == hash((3, 1, (2, 3)))
    assert first != TreeDiagram.build(3, 1, (1, 2))[0]
    with pytest.raises(ValueError, match="construct diagrams via TreeDiagram.build"):
        TreeDiagram(3, 1, (2, 3))


@pytest.mark.parametrize("build, message", [
    (lambda: Word(1, ()), "free group rank must be at least 2"),
    (lambda: Word(2, ((3, 1),)), "generator index 3 out of range 1..2"),
    (lambda: Word(2, ((1, 2),)), "letter exponent must be +-1, got 2"),
    # a letter is checked before it could cancel against its inverse
    pytest.param(lambda: Word(2, ((3, 1), (3, -1))), "generator index 3 out of range 1..2",
                 id="<lambda>-cancelling invalid letters"),
    (lambda: Braid(1, ()), "braid group needs at least 2 strands"),
    (lambda: Braid(3, ((2, 1, 1),)), "bad band generator indices (2,1) for n=3"),
    (lambda: Braid(3, ((1, 2, 0),)), "braid letter exponent must be +-1, got 0"),
    (lambda: LongitudeTuple(2, (Word.identity(2),) * 2, 0),
     "truncation level must be >= 1"),
    (lambda: LongitudeTuple(2, (Word.identity(2),)),
     "need exactly one longitude per strand"),
    (lambda: LongitudeTuple(2, (Word.identity(3),) * 2), "longitude rank mismatch"),
    (lambda: LongitudeTuple(2, (Word.gen(2, 1), Word.identity(2))),
     "longitude y_1 is not normalised (exponent sum of x_1 must be 0)"),
    (lambda: SpecialAutData(2, 3, (LieElement.zero(2),)),
     "need one conjugating datum per generator"),
    (lambda: SpecialAutData(2, 3, (LieElement.generator(2, 1), LieElement.zero(2))),
     "Y_1 is not normalised: nonzero X_1 component"),
    (lambda: SpecialAutData(2, 0, (LieElement.generator(2, 2), LieElement.zero(2))),
     "Y_1 exceeds the declared degree bound"),
    (lambda: MoritaInput(Braid.identity(2), shared_expansion(2, 4), 0),
     "filtration parameter k must be >= 1"),
    (lambda: MoritaInput(Braid.identity(2), shared_expansion(2, 2), 1),
     "expansion truncation 2 too small; the degree-1 pipeline needs 3"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
