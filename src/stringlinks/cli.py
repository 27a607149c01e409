"""Command-line interface.

Commands
--------
milnor      total / degree-k / truncated invariants of a braid or tuple
longitudes  the normalised longitude words of a braid
level       the Milnor filtration level of an input
expansion   build or check special expansions (JSON files)
trees       tree-diagram form of an invariant, with optional DOT export
homology    dimension tables of the Koszul homology
morita      the refined H3-valued invariant plus the diagram check
verify      the full structural property suite on one input

Braid words are whitespace-separated tokens ``A(i,j)`` with an optional
integer power ``^k``; square brackets ``[ w1 , w2 ]`` form group
commutators and may nest and carry powers.  Longitude tuples come from
JSON files: {"n": ..., "truncation": ..., "words": [[gen, exp], ...] per
strand}.

Every Milnor value is a degree window lo..hi of the total invariant,
needing truncation hi + 1.  ``milnor --mode total`` reads only ``--trunc``
(hi, default 3); the degree and truncated modes read only ``--k``.

Exit codes: 0 success, 2 argument or input parse error (including
``--n``, ``--k``, ``--trunc`` or ``--max-k`` below 1, ``homology --k``
below 2, ``milnor --k`` missing in a mode that reads it or given in one
that does not, ``--trunc`` outside ``--mode total``, brackets nested too
deeply, a JSON input file of the wrong shape or encoding, and an input
path that cannot be read), 3 violated
mathematical precondition, reported as ``precondition violated: ...``
(filtration, speciality, scale, an input file whose n or truncation does
not fit), 4 internal invariant failure.  Scale covers a braid word of
more than ``words.MAX_LETTERS`` (3 * 10**6) letters once expanded,
refused before the word is built, longitude words growing past that many
letters in total, and tree degrees beyond ``trees.MAX_DEGREE`` or
``MAX_COLORS``, which ``trees``, ``morita`` and refined ``verify`` refuse
before any series work.
All randomness is seed-controlled and echoed in the output, and output is
byte-deterministic given the configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .expansions import (Expansion, build_special, filtration_degree,
                         is_special)
from .koszul import homology
from .milnor import milnor_window, special_artin
from .morita import (MoritaInput, d2_composition, diagram_sides, morita_milnor,
                     required_truncation)
from .tensor import TensorSeries
from .trees import enumerate_trees, eta_inverse
from .words import (MAX_LETTERS, Braid, LongitudeTuple, ScaleError, Word,
                    commutator, longitudes)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class ParseError(ValueError):
    """Input text or an input file that does not follow its format (exit 2)."""


class BraidSyntaxError(ParseError):
    pass


# -- braid word grammar --------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],":
            out.append(ch)
            i += 1
        elif ch == "A":
            j = text.find(")", i)
            if j < 0:
                raise BraidSyntaxError(f"unterminated generator at offset {i}")
            out.append(text[i:j + 1])
            i = j + 1
        elif ch == "^":
            j = i + 1
            if j < len(text) and text[j] == "-":
                j += 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise BraidSyntaxError(f"unexpected character {ch!r} at offset {i}")
    return out


def parse_braid(text: str, n: int) -> Braid:
    """Parse the braid grammar; empty input is the identity braid.

    Raises ScaleError before building any word of more than MAX_LETTERS
    letters once powers and commutators are expanded.
    """
    tokens = _tokenize(text)
    Braid.identity(n)  # refuses n < 2 before any atom is read
    pos = 0

    def check(letters: int) -> None:
        if letters > MAX_LETTERS:
            raise ScaleError(f"braid word has more than {MAX_LETTERS} letters "
                             "once powers and commutators are expanded")

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_power() -> int:
        nonlocal pos
        tok = peek()
        if tok is not None and tok.startswith("^"):
            pos += 1
            try:
                return int(tok[1:])
            except ValueError:
                raise BraidSyntaxError(f"bad power {tok!r}")
        return 1

    def parse_atom() -> Braid:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise BraidSyntaxError("unexpected end of braid word")
        if tok == "[":
            pos += 1
            left = parse_word(stop={",", "]"})
            if peek() != ",":
                raise BraidSyntaxError("commutator needs two comma-separated parts")
            pos += 1
            right = parse_word(stop={"]"})
            if peek() != "]":
                raise BraidSyntaxError("unclosed commutator bracket")
            pos += 1
            check(2 * (len(left) + len(right)))
            base = commutator(left, right)
            power = parse_power()
            check(len(base) * abs(power))
            return base ** power
        if tok.startswith("A("):
            pos += 1
            try:
                i_str, j_str = tok[2:-1].split(",")
                i, j = int(i_str), int(j_str)
            except ValueError:
                raise BraidSyntaxError(f"bad generator token {tok!r}")
            power = parse_power()
            try:
                letter = Braid.gen(n, i, j)
            except ValueError as exc:
                raise BraidSyntaxError(str(exc))
            check(abs(power))
            return letter ** power
        raise BraidSyntaxError(f"unexpected token {tok!r}")

    def parse_word(stop=frozenset()) -> Braid:
        letters = []
        while True:
            tok = peek()
            if tok is None or tok in stop:
                return Braid(n, tuple(letters))
            atom = parse_atom().letters
            check(len(letters) + len(atom))
            letters.extend(atom)

    try:
        word = parse_word()
    except RecursionError:
        raise BraidSyntaxError("braid word nested too deeply")
    if pos != len(tokens):
        raise BraidSyntaxError(f"trailing tokens from {tokens[pos]!r}")
    return word


# -- JSON input files ---------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x, length: int | None = None) -> bool:
    return (isinstance(x, list) and all(_is_int(v) for v in x)
            and (length is None or len(x) == length))


def _rank(doc, key: str) -> int | None:
    """n >= 1 when doc is a dict holding exactly n entries under key."""
    n = doc.get("n") if isinstance(doc, dict) else None
    if _is_int(n) and n >= 1 and isinstance(doc.get(key), list) and len(doc[key]) == n:
        return n
    return None


def _longitude_shape(doc) -> bool:
    n = _rank(doc, "words")
    return (n is not None
            and (doc.get("truncation") is None
                 or _is_int(doc["truncation"]) and doc["truncation"] >= 1)
            and all(isinstance(letters, list)
                    and all(_is_int_list(letter, 2) and 1 <= letter[0] <= n
                            and letter[1] in (1, -1) for letter in letters)
                    for letters in doc["words"]))


def _is_rational(x) -> bool:
    if not (_is_int(x) or isinstance(x, str)):
        return False
    try:
        Fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _expansion_shape(doc) -> bool:
    n = _rank(doc, "images")
    return (n is not None
            and _is_int(doc.get("truncation")) and doc["truncation"] >= 1
            and all(isinstance(terms, list)
                    and all(isinstance(t, dict) and _is_int_list(t.get("word"))
                            and all(1 <= g <= n for g in t["word"])
                            and _is_rational(t.get("coefficient"))
                            for t in terms)
                    for terms in doc["images"]))


def _load_json(path: str, shape_ok, expected: str):
    """A JSON input file, checked against its format before any use."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path} is not UTF-8 JSON: {exc}")
    if not shape_ok(doc):
        raise ParseError(f"{path} is not {expected}")
    return doc


def load_longitude_tuple(path: str) -> LongitudeTuple:
    doc = _load_json(path, _longitude_shape, 'a longitude tuple {"n": int, '
                     '"truncation": int >= 1 or null, "words": [[[gen, exp], ...], ...]}')
    n = doc["n"]
    words = tuple(Word(n, letters) for letters in doc["words"])
    return LongitudeTuple(n, words, doc.get("truncation"))


def load_expansion(path: str) -> Expansion:
    doc = _load_json(path, _expansion_shape, 'an expansion {"n": int, "truncation": int, '
                     '"images": [[{"word": [int, ...], "coefficient": "p/q"}, ...], ...]}')
    n, trunc = doc["n"], doc["truncation"]
    return Expansion(n, trunc, tuple(TensorSeries.from_terms(
        n, trunc, ((tuple(t["word"]), Fraction(t["coefficient"])) for t in terms))
        for terms in doc["images"]))


# -- shared helpers -------------------------------------------------------------

def _resolve_input(args) -> "Braid | LongitudeTuple":
    if args.longitude_file:
        data = load_longitude_tuple(args.longitude_file)
        if data.n != args.n:
            raise ValueError(f"strand count does not match: the longitude file "
                             f"has n={data.n}, --n is {args.n}")
        return data
    return parse_braid(args.braid or "", args.n)


def _resolve_expansion(args, trunc: int) -> tuple[Expansion, dict]:
    if args.expansion == "canonical":
        return build_special(args.n, trunc), {"expansion": "canonical"}
    if args.expansion == "randomized":
        return (build_special(args.n, trunc, strategy="randomized", seed=args.seed),
                {"expansion": "randomized", "seed": args.seed})
    theta = load_expansion(args.expansion)
    if theta.n != args.n:
        raise ValueError(f"expansion file has n={theta.n}, expected {args.n}")
    if theta.trunc < trunc:
        raise ValueError(f"expansion file truncation {theta.trunc} < required {trunc}")
    return theta, {"expansion": os.path.basename(args.expansion)}


def _emit(args, document: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(text)


# -- commands -------------------------------------------------------------------

def cmd_milnor(args) -> int:
    data = _resolve_input(args)
    if args.mode == "total":
        if args.k is not None:
            raise ParseError("--k is not read in mode total; --trunc is its top degree")
        lo, hi = 1, args.trunc or 3
    else:
        if args.trunc is not None:
            raise ParseError(f"--trunc is read only in mode total, not {args.mode}")
        if args.k is None:
            raise ParseError(f"--k is required for mode {args.mode}")
        lo, hi = args.k, (args.k if args.mode == "degree" else 2 * args.k - 1)
    theta, meta = _resolve_expansion(args, hi + 1)
    value = milnor_window(data, theta, lo, hi)
    doc = {"command": "milnor", "mode": args.mode, "n": args.n, "k": args.k,
           "entries": value.to_json_entries(), **meta}
    _emit(args, doc, str(value))
    return EXIT_OK


def cmd_longitudes(args) -> int:
    data = _resolve_input(args)
    tuple_ = longitudes(data) if isinstance(data, Braid) else data
    doc = {"command": "longitudes", "n": args.n,
           "words": [[list(l) for l in y.letters] for y in tuple_.words],
           "rendered": [str(y) for y in tuple_.words]}
    _emit(args, doc, "\n".join(f"y_{i} = {y}" for i, y in
                               enumerate(tuple_.words, start=1)))
    return EXIT_OK


def cmd_level(args) -> int:
    data = _resolve_input(args)
    level = filtration_degree(data, args.max_k)
    doc = {"command": "level", "n": args.n, "maxK": args.max_k, "level": level}
    _emit(args, doc, str(level))
    return EXIT_OK


def cmd_expansion_build(args) -> int:
    theta = build_special(args.n, args.trunc, strategy=args.strategy, seed=args.seed)
    doc = theta.to_json_dict()
    doc["strategy"] = args.strategy
    if args.strategy == "randomized":
        doc["seed"] = args.seed
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_expansion_check(args) -> int:
    theta = load_expansion(args.file)
    report = is_special(theta)
    doc = {"command": "expansion check", "n": theta.n, "truncation": theta.trunc,
           "groupLike": report.grouplike, "tangential": report.tangential,
           "normalized": report.normalized, "special": report.is_special,
           "failure": report.failure, "failureDegree": report.failure_degree}
    _emit(args, doc,
          "special" if report.is_special else f"NOT special: {report.failure}")
    return EXIT_OK if report.is_special else EXIT_PRECONDITION


def cmd_trees(args) -> int:
    data = _resolve_input(args)
    enumerate_trees(args.n, 2 * args.k - 1)  # refuses eta_inverse's span up front
    theta, meta = _resolve_expansion(args, 2 * args.k)
    comb = eta_inverse(milnor_window(data, theta, args.k, 2 * args.k - 1))
    entries = [{"tree": str(t), "degree": t.degree, "coefficient": str(c)}
               for t, c in comb.sorted_terms()]
    doc = {"command": "trees", "n": args.n, "k": args.k, "terms": entries, **meta}
    text = str(comb)
    if args.dot:
        os.makedirs(args.output_dir, exist_ok=True)
        paths = []
        for idx, (t, _c) in enumerate(comb.sorted_terms()):
            path = os.path.join(args.output_dir, f"tree_{idx:03d}.dot")
            with open(path, "w") as fh:
                fh.write(t.to_dot(name=f"tree_{idx:03d}"))
            paths.append(path)
        doc["dotFiles"] = paths
        text += f"\nwrote {len(paths)} DOT file(s) to {args.output_dir}"
    _emit(args, doc, text)
    return EXIT_OK


def cmd_homology(args) -> int:
    basis = homology(3, args.n, args.k - 1)
    table = basis.degree_table()
    fingerprint = basis.fingerprint()
    doc = {"command": "homology", "n": args.n, "k": args.k,
           "quotientClass": args.k - 1,
           "fingerprint": fingerprint,
           "dimension": basis.dimension,
           "byInternalDegree": {str(d): row for d, row in table.items()}}
    lines = [f"H_3 of the class-{args.k - 1} quotient, n={args.n}: "
             f"dim = {basis.dimension}   [{fingerprint}]"]
    for d, row in table.items():
        lines.append(f"  degree {d}: chains {row['chains']}, cycles {row['cycles']},"
                     f" boundaries {row['boundaries']}, H {row['homology']}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_morita(args) -> int:
    data = _resolve_input(args)
    enumerate_trees(args.n, 2 * args.k)  # refuses d2_composition's span up front
    theta, meta = _resolve_expansion(args, required_truncation(args.k))
    inp = MoritaInput(data, theta, args.k)
    lhs, rhs = diagram_sides(inp)
    mu_next = d2_composition(lhs)
    doc = {"command": "morita", "n": args.n, "k": args.k, **meta,
           "class": lhs.to_json_dict(),
           "diagramCommutes": lhs == rhs,
           "degreeProjection": mu_next.to_json_entries()}
    lines = [f"class: {lhs}",
             f"diagram commutes: {lhs == rhs}",
             f"degree-{args.k + 1} projection:",
             str(mu_next)]
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if lhs == rhs else EXIT_INTERNAL


def cmd_verify(args) -> int:
    data = _resolve_input(args)
    checks: list[tuple[str, bool]] = []
    cap = args.k or 6
    level = filtration_degree(data, max_k=cap)
    k = args.k or max(level, 1)
    # without --k, a level at the cap only bounds the input's level from
    # below (the identity braid lies in every level): only the degree-k
    # checks run
    refined = args.k is not None or level < cap
    if refined and k >= 2:
        enumerate_trees(args.n, 2 * k - 2)  # d2_composition's span at k - 1
    # the degree-k checks need truncation k + 1, the refined ones run at k - 1
    theta, meta = _resolve_expansion(
        args, max(k + 1, required_truncation(k - 1)) if refined else k + 1)
    report = is_special(theta)
    checks.append(("expansion is special", report.is_special))
    aut = special_artin(data, theta)
    checks.append(("action fixes X_1+...+X_n", aut.speciality_defect().is_zero()))
    value = aut.invariant()
    checks.append((f"filtration level >= {k}",
                   all(d >= k for d in value.degrees())))
    deg = value.degree_component(k)
    checks.append((f"degree-{k} part in the bracket kernel",
                   deg.bracket_map().is_zero()))
    alt = build_special(theta.n, theta.trunc, strategy="randomized", seed=17)
    alt_deg = special_artin(data, alt).invariant().degree_component(k)
    checks.append((f"degree-{k} part expansion-independent", deg == alt_deg))
    if not refined:
        checks.append((f"input is at least level {k}; refined checks skipped", True))
    elif k >= 2:
        inp = MoritaInput(data, theta, k - 1)
        lhs, rhs = diagram_sides(inp)  # raises unless sigma is a 2-cycle
        checks.append(("sigma is a 2-cycle", True))
        checks.append(("commutative diagram", lhs == rhs))
        checks.append((
            "class independent of the bounding chain",
            lhs == morita_milnor(inp, "backward")))
        checks.append((f"d2 composition equals mu_{k}", d2_composition(lhs) == deg))
    ok = all(flag for _, flag in checks)
    doc = {"command": "verify", "n": args.n, "k": k, **meta,
           "checks": [{"name": name, "ok": flag} for name, flag in checks],
           "ok": ok}
    _emit(args, doc, "\n".join(
        f"[{'PASS' if flag else 'FAIL'}] {name}" for name, flag in checks))
    return EXIT_OK if ok else EXIT_INTERNAL


# -- parser ---------------------------------------------------------------------

def _add_input(p) -> None:
    """The input flags every command on a braid or longitude tuple reads."""
    p.add_argument("--n", type=int, required=True, help="number of strands")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--braid", default="", help="braid word")
    group.add_argument("--longitude-file", help="JSON longitude tuple")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_expansion(p, k_required: bool = False) -> None:
    """The input flags, the expansion flags and the degree --k of every
    command that builds an expansion."""
    _add_input(p)
    p.add_argument("--expansion", default="canonical",
                   help="canonical | randomized | path to a JSON expansion")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized expansion")
    p.add_argument("--k", type=int, required=k_required, help="filtration degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringlinks",
        description="Exact Milnor invariants of pure braids and string links")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("milnor", help="total / degree / truncated invariant")
    _add_expansion(p)
    p.add_argument("--mode", choices=("total", "degree", "truncated"),
                   default="degree", help="--mode total reads --trunc, the others --k")
    p.add_argument("--trunc", type=int, help="highest degree for --mode total "
                   "(default 3); the expansion is built one degree higher")
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("longitudes", help="longitude words of a braid")
    _add_input(p)
    p.set_defaults(func=cmd_longitudes)

    p = sub.add_parser("level", help="Milnor filtration level")
    _add_input(p)
    p.add_argument("--max-k", type=int, default=6)
    p.set_defaults(func=cmd_level)

    p = sub.add_parser("expansion", help="build or check special expansions")
    psub = p.add_subparsers(dest="action", required=True)
    pb = psub.add_parser("build")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--trunc", type=int, required=True)
    pb.add_argument("--strategy", choices=("canonical", "randomized"),
                    default="canonical")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", help="output JSON path")
    pb.set_defaults(func=cmd_expansion_build)
    pc = psub.add_parser("check")
    pc.add_argument("file")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=cmd_expansion_check)

    p = sub.add_parser("trees", help="tree-diagram form of the invariant")
    _add_expansion(p, k_required=True)
    p.add_argument("--dot", action="store_true", help="write DOT files")
    p.add_argument("--output-dir", default=".", help="directory for DOT files (default .)")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("homology", help="Koszul homology dimension table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True,
                   help="H_3 of the quotient by degrees >= k")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("morita", help="refined H3-valued invariant")
    _add_expansion(p, k_required=True)
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser("verify", help="structural property suite on one input")
    _add_expansion(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("n", "k", "trunc", "max_k"):
        value = vars(args).get(flag)
        # H_3 of the class-(k-1) quotient needs k - 1 >= 1
        least = 2 if (args.command, flag) == ("homology", "k") else 1
        if value is not None and value < least:
            print(f"error: --{flag.replace('_', '-')} must be >= {least}",
                  file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # missing, unreadable or directory input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # filtration, speciality, scale, a mismatched file
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
