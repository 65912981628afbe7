"""Text formats: disjoint-cycle notation and the two group file formats.

Cayley files: a ``cayley n`` header line, then n rows of n 0-based
indices; the identity may be any element and is swapped to index 0.
Permutation files: a ``perm d`` header, then one generator per line in
disjoint-cycle notation over 1..d, e.g. ``(1 2 3 4)(5 6)``; fixed points
are omitted and ``()`` is the identity.  A header size above the ingest
bound is refused unread.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import GroupFileError, InvalidPermutationError, OrderBoundExceededError
from .groups import DEFAULT_INGEST_BOUND, FiniteGroup

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint-cycle notation over 1..degree into a 0-based image
    tuple."""
    stripped = text.strip()
    if not stripped:
        raise InvalidPermutationError("empty permutation text")
    if stripped.replace(" ", "") == "()":
        return tuple(range(degree))
    consumed = _CYCLE_RE.sub("", stripped).replace(",", "").strip()
    if consumed:
        raise InvalidPermutationError(f"unparsed text {consumed!r} in {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        points = [int(t) for t in re.split(r"[\s,]+", body.strip()) if t]
        if not points:
            continue
        for x in points:
            if not 1 <= x <= degree:
                raise InvalidPermutationError(f"point {x} outside 1..{degree}")
            if x - 1 in seen:
                raise InvalidPermutationError(f"point {x} repeated in {text!r}")
            seen.add(x - 1)
        for i, x in enumerate(points):
            images[x - 1] = points[(i + 1) % len(points)] - 1
    return tuple(images)


def format_cycles(perm: tuple[int, ...]) -> str:
    """Write a 0-based image tuple in 1-based disjoint-cycle notation."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def parse_group_text(text: str) -> FiniteGroup:
    """Parse either file format, dispatching on the header line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GroupFileError("empty group file")
    header = lines[0].split()
    if len(header) != 2 or header[0] not in ("cayley", "perm"):
        raise GroupFileError(f"bad header {lines[0]!r}; expected 'cayley n' or 'perm d'")
    try:
        size = int(header[1])
    except ValueError:
        raise GroupFileError(f"bad header size in {lines[0]!r}") from None
    if size > DEFAULT_INGEST_BOUND:
        raise OrderBoundExceededError(f"{header[0]} {size} exceeds bound {DEFAULT_INGEST_BOUND}")
    if header[0] == "cayley":
        rows = []
        for ln in lines[1:]:
            rows.append([int(t) for t in ln.split()])
        if len(rows) != size or any(len(r) != size for r in rows):
            raise GroupFileError(f"expected {size} rows of {size} entries")
        return FiniteGroup.from_table(rows)
    gens = [parse_cycles(ln, size) for ln in lines[1:]]
    return FiniteGroup.from_permutation_generators(gens, degree=size)


def read_group_file(path: str | Path) -> FiniteGroup:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GroupFileError(f"cannot read {path}: {exc}") from exc
    return parse_group_text(text)


def write_cayley_file(group: FiniteGroup, path: str | Path) -> None:
    Path(path).write_text(group.to_cayley_text())
