"""Textual file formats for subshifts, measures and rectangle families.

Subshift files (.sft)::

    # comments and blank lines are ignored
    dimension: 2
    alphabet: 0 1
    certified: row-lift        # optional; refused unless the patterns derive it
    forbidden:
    (0,0)=1 (1,0)=1            # one pattern per line; 1D cells are (m)=sym

Measure files (.measure)::

    type: bernoulli            # or markov-row
    alphabet: 0 1              # optional; defaults to 0 1 2 ...
    weights: 0.5 0.5           # bernoulli only
    transition:                # markov-row only: a square block, one row per line
    0.618033988749895 0.381966011250105
    1 0
    stationary: 0.7236 0.2764  # markov-row only, optional; computed when absent

Rectangle files for the greedy-cover demo hold one ``a b c d`` quadruple
per line.  Parsers report the offending line number; a key given twice
is refused at its second line.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError
from .information import MeasureSpec
from .lattice import IntRect
from .subshift import Alphabet, Pattern, SftSpec


def _meaningful_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _first_use(key: str, key_lines: dict[str, int], lineno: int) -> None:
    """Record ``key`` at ``lineno``, or refuse it there if it was given before."""
    if key_lines.setdefault(key, lineno) != lineno:
        raise ParseError(f"'{key}:' is given twice; its first line is {key_lines[key]}",
                         lineno)


def parse_sft_text(text: str) -> SftSpec:
    dimension = None
    alph: Alphabet | None = None
    declared = None
    forbidden: list[Pattern] = []
    in_forbidden = False
    key_lines: dict[str, int] = {}
    for lineno, line in _meaningful_lines(text):
        if not in_forbidden and ":" in line:
            key, _, rest = line.partition(":")
            key = key.strip().lower()
            rest = rest.strip()
            _first_use(key, key_lines, lineno)
            if key == "dimension":
                if rest not in ("1", "2"):
                    raise ParseError(f"dimension must be 1 or 2, got {rest!r}", lineno)
                dimension = int(rest)
                continue
            if key == "alphabet":
                toks = rest.split()
                if not toks:
                    raise ParseError("alphabet line lists no symbols", lineno)
                try:
                    alph = Alphabet(tuple(toks))
                except ValueError as e:
                    raise ParseError(str(e), lineno)
                continue
            if key == "certified":
                declared = (rest, lineno)
                continue
            if key == "forbidden":
                if rest:
                    raise ParseError("forbidden: starts a block; patterns go on "
                                     "their own lines", lineno)
                in_forbidden = True
                continue
            raise ParseError(f"unknown key {key!r}", lineno)
        if not in_forbidden:
            raise ParseError(f"unexpected line {line!r} before the forbidden block", lineno)
        if dimension is None or alph is None:
            raise ParseError("dimension and alphabet must precede the forbidden block", lineno)
        forbidden.append(_parse_pattern_line(line, lineno, dimension, alph))
    if dimension is None:
        raise ParseError("missing 'dimension:' line")
    if alph is None:
        raise ParseError("missing 'alphabet:' line")
    try:
        sft = SftSpec(dimension, alph, tuple(forbidden))
    except ValueError as e:
        raise ParseError(str(e))
    if declared is not None and declared[0] != sft.certified:
        raise ParseError(f"certified: {declared[0]!r} is false; the forbidden patterns "
                         f"derive {sft.certified or 'no certificate'}", declared[1])
    return sft


def _parse_pattern_line(line: str, lineno: int, dimension: int, alph: Alphabet) -> Pattern:
    cells: dict[tuple[int, int], str] = {}
    for tok in line.split():
        if "=" not in tok or not tok.startswith("("):
            raise ParseError(f"bad cell constraint {tok!r}; expected (m,n)=sym", lineno)
        coords, _, sym = tok.partition("=")
        coords = coords.strip()
        if not (coords.startswith("(") and coords.endswith(")")):
            raise ParseError(f"bad cell coordinates {coords!r}", lineno)
        parts = coords[1:-1].split(",")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer coordinate in {coords!r}", lineno)
        if dimension == 1:
            if len(nums) != 1:
                raise ParseError("1D cells are written (m)=sym", lineno)
            pt = (nums[0], 0)
        else:
            if len(nums) != 2:
                raise ParseError("2D cells are written (m,n)=sym", lineno)
            pt = (nums[0], nums[1])
        if pt in cells:
            raise ParseError(f"duplicate cell {coords} in one pattern", lineno)
        if sym not in alph.symbols:
            raise ParseError(f"symbol {sym!r} not in the alphabet", lineno)
        cells[pt] = sym
    if not cells:
        raise ParseError("empty forbidden pattern", lineno)
    return Pattern.from_dict(cells)


def parse_sft(path) -> SftSpec:
    return parse_sft_text(Path(path).read_text(encoding="utf-8"))


def parse_measure_text(text: str) -> MeasureSpec:
    kind = None
    alph: Alphabet | None = None
    weights = None
    rows: list[list[float]] = []
    stationary = None
    in_transition = False
    key_lines: dict[str, int] = {}
    for lineno, line in _meaningful_lines(text):
        if ":" in line:
            in_transition = False
            key, _, rest = line.partition(":")
            key = key.strip().lower()
            rest = rest.strip()
            _first_use(key, key_lines, lineno)
            if key == "type":
                if rest not in ("bernoulli", "markov-row"):
                    raise ParseError(f"type must be bernoulli or markov-row, got {rest!r}",
                                     lineno)
                kind = rest
            elif key == "alphabet":
                try:
                    alph = Alphabet(tuple(rest.split()))
                except ValueError as e:
                    raise ParseError(str(e), lineno)
            elif key == "weights":
                weights = _parse_floats(rest, lineno)
            elif key == "transition":
                in_transition = True
            elif key == "stationary":
                stationary = _parse_floats(rest, lineno)
            else:
                raise ParseError(f"unknown key {key!r}", lineno)
            if not (in_transition and rest):
                continue
            line = rest  # a first row on the 'transition:' line
        if not in_transition:
            raise ParseError(f"unexpected line {line!r}", lineno)
        row = _parse_floats(line, lineno)
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} numbers in each transition row, "
                             f"got {len(row)}", lineno)
        rows.append(row)
    if kind is None:
        raise ParseError("missing 'type:' line")
    for key in {"bernoulli": ("transition", "stationary"), "markov-row": ("weights",)}[kind]:
        if key in key_lines:
            raise ParseError(f"a {kind} measure does not read '{key}:'", key_lines[key])
    if kind == "bernoulli":
        if weights is None:
            raise ParseError("bernoulli measure needs a 'weights:' line")
        if alph is None:
            alph = Alphabet(tuple(str(i) for i in range(len(weights))))
        try:
            return MeasureSpec.bernoulli(alph, weights)
        except ValueError as e:
            raise ParseError(str(e))
    if not rows:
        raise ParseError("markov-row measure needs a 'transition:' block")
    if len(rows) != len(rows[0]):
        raise ParseError(f"transition block has {len(rows)} rows of {len(rows[0])} "
                         f"numbers; it must be square", key_lines["transition"])
    if alph is None:
        alph = Alphabet(tuple(str(i) for i in range(len(rows))))
    try:
        return MeasureSpec.markov_row(alph, rows, stationary)
    except ValueError as e:
        raise ParseError(str(e))


def _parse_floats(text: str, lineno: int) -> list[float]:
    try:
        vals = [float(t) for t in text.split()]
    except ValueError:
        raise ParseError(f"expected numbers, got {text!r}", lineno)
    if not vals:
        raise ParseError("expected at least one number", lineno)
    return vals


def parse_measure(path) -> MeasureSpec:
    return parse_measure_text(Path(path).read_text(encoding="utf-8"))


def parse_rects_text(text: str) -> list[IntRect]:
    rects = []
    for lineno, line in _meaningful_lines(text):
        toks = line.split()
        if len(toks) != 4:
            raise ParseError(f"expected 'a b c d', got {line!r}", lineno)
        try:
            a, b, c, d = (int(t) for t in toks)
        except ValueError:
            raise ParseError(f"non-integer bound in {line!r}", lineno)
        try:
            rects.append(IntRect(a, b, c, d))
        except ValueError as e:
            raise ParseError(str(e), lineno)
    return rects


def parse_rects(path) -> list[IntRect]:
    return parse_rects_text(Path(path).read_text(encoding="utf-8"))
