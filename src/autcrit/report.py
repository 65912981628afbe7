"""Corpus verification: criterion predictions versus brute force.

For every requested criterion the driver evaluates the invariant-level
predicate, asks the search engine whether the two automorphism subgroups
it talks about are equal, and records whether prediction and observation
agree.  ``CRITERIA`` is the one table of what each criterion compares.
The parameterised criteria (COR_2_3, COR_2_4, COR_2_5) are swept over
every admissible tuple of normal subgroups, one row per tuple; the
predicate decides the first tuple of each invariant key it reads, and
later tuples reuse that verdict.  The sweeps walk lists of containments
computed once per group (``containment`` and its inverse ``containing``)
and make no subset test, and yield their tuples in blocks that share the
right side and the key's prefix: COR_2_3 one block per (N1, M2, N2) with
its list of M1, COR_2_4 and COR_2_5 one per N with its list of M.
Those containments make the hypotheses hold and the left side a subgroup
of the right, so a swept row compares two orders, each read from one
table of |Aut^M_N| by (central M, N) with one row per central M, filled
whole by one count when first read; COR_2_4's right side C* = Aut^Z_Z is
the cell (Z(G), Z(G)), and only COR_2_5's, the central automorphisms, is
the order of a distinguished set.  A single-group row compares two sets.

A report keeps its rows as shared heads plus per-row columns.  A head
is what rows share: (group, order, prime, criterion, predicted, observed,
match, clause, note), each distinct one stored once; a row is a head id,
its elapsed_ms as measured, and its args tuple, three entries in three
plain lists.  ``verify_group`` walks the criteria in id order and writes
each row straight into the columns, so they are in output order, and
the report is the same whatever order the criteria were asked in, with
one float object per distinct elapsed_ms.  ``Report.rows`` builds ``Row``
objects only when read; the verifier, the JSON writer and the CLI's exit
status and counts read the heads and columns and build none.

JSON reports are line-delimited with exactly the fields {group, order,
prime, criterion, predicted, observed, match, clause, elapsed_ms}, where
elapsed_ms is one row's decision time in ms to the microsecond, between
two ``perf_counter_ns`` reads; rows are sorted by (group name, criterion
id) with the deterministic sweep order preserved inside a criterion.  The
writer builds each distinct line of a report once and joins shared
strings.  Skipped brute-force confirmations leave observed and match
null; the reason only appears in the text rendering.  Two bounds skip
rows.  The automorphism order bound (``aut_bound()``, AUTCRIT_AUT_BOUND,
lifted by ``force``) is read and applied here only: above it every row
is skipped before any call into ``automorphisms``.  The member bound is
raised from there, by a side whose composition would build too many
members, and skips only the rows that need that side; ``force`` does not
lift it.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import NamedTuple

from . import automorphisms as aut
from . import criteria as crit
from .abelian import is_prime
from .catalog import GroupSpec, build_group, catalog
from .errors import AbelianInputError, ClassNotTwoError, ConfigError, InvariantError
from .errors import NotAbelianError, OrderBoundExceededError
from .groups import FiniteGroup


# The fixed JSON row schema, in output order.  ``Row.note`` (a skip reason)
# and ``Row.args`` (indices into ``Report.lattice``, the swept subgroups'
# sorted members, so a report keeps no group alive) are text-only.
JSON_FIELDS = ("group", "order", "prime", "criterion", "predicted", "observed",
               "match", "clause", "elapsed_ms")


@dataclass(slots=True)
class Row:
    group: str
    order: int
    prime: int
    criterion: str
    predicted: bool | None
    observed: bool | None
    match: bool | None
    clause: str
    elapsed_ms: float
    note: str = ""
    args: tuple[int, ...] = ()


class Head(NamedTuple):
    """What the rows of one outcome share: a row without elapsed_ms and args."""
    group: str
    order: int
    prime: int
    criterion: str
    predicted: bool | None
    observed: bool | None
    match: bool | None
    clause: str
    note: str


class Report:
    """One group's summary, notes and rows.

    Row i is ``heads[head_of[i]]`` with ``elapsed[i]``, its elapsed_ms as
    measured, and ``args[i]``; the three columns are plain lists that
    ``verify_group`` fills in output order, and a head is stored once,
    through ``intern``, however many rows share it.  ``rows`` is a
    read-only view that builds every ``Row`` when read.
    """

    def __init__(self, group: str, order: int, prime: int | None, summary: dict[str, str]):
        self.group, self.order, self.prime, self.summary = group, order, prime, summary
        self.notes: list[str] = []
        self.lattice: tuple[tuple[int, ...], ...] = ()
        self.heads: list[Head] = []
        self.head_of: list[int] = []
        self.elapsed: list[float] = []
        self.args: list[tuple[int, ...]] = []
        self._ids: dict[Head, int] = {}  # head -> its index in heads

    def intern(self, head: Head) -> int:
        """The index of ``head`` in ``heads``, stored on first sight."""
        h = self._ids.get(head)
        if h is None:
            h = self._ids[head] = len(self.heads)
            self.heads.append(head)
        return h

    def row(self, i: int) -> Row:
        *head, note = self.heads[self.head_of[i]]
        return Row(*head, self.elapsed[i], note, self.args[i])

    @property
    def rows(self) -> tuple[Row, ...]:
        """Every row, built on read."""
        return tuple(map(self.row, range(len(self.head_of))))

    @property
    def all_match(self) -> bool:
        return all(h.match is not False for h in self.heads)


def group_summary(g: FiniteGroup, p: int | None) -> dict[str, str]:
    """The invariant block printed by analyze and at the top of reports."""
    summary: dict[str, str] = {"order": str(g.n)}
    summary["prime"] = str(p) if p else "-"
    if g.n == 1:
        summary["abelian"] = "yes"
        return summary
    if g.is_abelian():
        summary["abelian"] = "yes"
        summary["type"] = str(g.abelian_partition(p))
        summary["exp"] = str(g.exponent())
        summary["d"] = str(g.burnside_rank())
        summary["cl"] = "1"
        return summary
    z = g.center()
    d = g.derived_subgroup()
    summary["abelian"] = "no"
    summary["|Z|"] = str(z.order)
    summary["Z"] = str(z.partition(p))
    summary["|G'|"] = str(d.order)
    try:  # G' is abelian iff its generators commute
        summary["G'"] = str(d.partition(p))
    except NotAbelianError:
        summary["G'"] = "(non-abelian)"
    summary["G/G'"] = str(crit.mod_derived_part(g, g.trivial_subgroup(), p))
    summary["G/G'Z"] = str(crit.mod_derived_part(g, z, p))
    # G/Z is abelian iff G' <= Z, and then G'Z = Z
    summary["G/Z"] = summary["G/G'Z"] if d <= z else "(non-abelian)"
    summary["cl"] = str(g.nilpotence_class())
    summary["d"] = str(g.burnside_rank())
    summary["exp"] = str(g.exponent())
    summary["purely_nonabelian"] = "yes" if g.is_purely_nonabelian()[0] else "no"
    return summary


def containment(g: FiniteGroup) -> list[list[int]]:
    """below[i]: the ascending indices j <= i into ``g.normal_subgroups()``
    of the normal subgroups inside the i-th (the list is sorted by order),
    read once per group from bitmasks of the members."""
    def compute():
        masks = [s.mask() for s in g.normal_subgroups()]
        return [[j for j, mj in enumerate(masks[:i + 1]) if mj & mi == mj]
                for i, mi in enumerate(masks)]

    return g._memo("below", compute)


def containing(g: FiniteGroup) -> list[list[int]]:
    """above[j]: the ascending indices i >= j into ``g.normal_subgroups()``
    of the normal subgroups holding the j-th, the inverse of
    ``containment``, built once per group."""
    def compute():
        below = containment(g)
        above: list[list[int]] = [[] for _ in below]
        for i, b in enumerate(below):
            for j in b:
                above[j].append(i)
        return above

    return g._memo("above", compute)


def center_subgroups(g: FiniteGroup) -> list[int]:
    """Indices into ``g.normal_subgroups()`` of the subgroups of Z(G),
    ascending, so the last is Z(G)."""
    return containment(g)[g.normal_subgroups().index(g.center())]


def _ids(parts) -> list[int]:
    """A small int per partition, equal exactly when the partitions are."""
    ids: dict = {}
    return [ids.setdefault(q, len(ids)) for q in parts]


# A sweep yields its rows in blocks (key, rest, pairs) that share all but
# their first argument, a central M: the block has one row for each
# ((M,), id) of pairs, with args (M,) + rest, indices into
# ``g.normal_subgroups()``, and one pairs list serves every block over the
# same subgroups of Z(G).  A row's verdict key is the int key + id: key
# packs the partition ids the block fixes and id is M's, so keys are equal
# exactly when the partitions ``criteria._nested`` reads are.  No flag
# tells M1 = M2: under the containment M1 <= M2, equal orders make equal
# subgroups.  The sweeps walk the containment lists and make no subset
# test; every subgroup of a central one is central.  For COR_2_4 and
# COR_2_5, G/G'Z(G), G/G' and Z(G) are fixed per group.
def sweep_2_3(g: FiniteGroup):
    """Admissible (M1, N1, M2, N2): M_i <= Z(G) and M_i <= N_i, M1 <= M2,
    N2 <= N1; one block per (N1, M2, N2), with every M1 <= M2, keyed by
    the ids of G/G'N1, G/G'N2, M2 and M1, in that order of significance."""
    p = g.prime_power()[0]
    normals, below = g.normal_subgroups(), containment(g)
    zsubs = center_subgroups(g)
    q = _ids(crit.mod_derived_part(g, n, p) for n in normals)
    mp = dict(zip(zsubs, _ids(normals[i].partition(p) for i in zsubs)))
    nq, nm = max(q) + 1, max(mp.values()) + 1
    # each central M2's ((M1,), id) pairs; each N2's central M2s
    pairs = {j: [((i,), mp[i]) for i in below[j]] for j in zsubs}
    central = [[j for j in b if j in mp] for b in below]
    for i1, b1 in enumerate(below):
        for i2 in b1:
            k = (q[i1] * nq + q[i2]) * nm
            for j in central[i2]:
                yield (k + mp[j]) * nm, (i1, j, i2), pairs[j]


def sweep_2_45(g: FiniteGroup):
    """Admissible (M, N) pairs with M <= Z(G) <= N; one block per N, with
    every M <= Z(G), keyed by the ids of G/G'N and M."""
    p = g.prime_power()[0]
    normals, zsubs = g.normal_subgroups(), center_subgroups(g)
    above = containing(g)[zsubs[-1]]
    q = _ids(crit.mod_derived_part(g, normals[i], p) for i in above)
    mp = _ids(normals[i].partition(p) for i in zsubs)
    nm = max(mp) + 1
    pairs = [((k,), mpk) for k, mpk in zip(zsubs, mp)]
    for i, qn in zip(above, q):
        yield qn * nm, (i,), pairs


# criterion id -> (predicate, block sweep or None, argument labels, left
# side, right side).  A side is a distinguished tag, or the (upper, lower)
# argument positions of Aut^{M}_{N}; a swept left side is (0, 1), so within
# a block only its M changes and the right side is fixed.  The predicate
# takes the group and the row's subgroups; single-group criteria have no
# sweep and no arguments, and run as one block of one row.
CRITERIA = {
    crit.COR_2_3: (crit.cor_2_3, sweep_2_3, ("M1", "N1", "M2", "N2"), (0, 1), (2, 3)),
    crit.COR_2_4: (crit.cor_2_4, sweep_2_45, ("M", "N"), (0, 1), aut.C_STAR),
    crit.COR_2_5: (crit.cor_2_5, sweep_2_45, ("M", "N"), (0, 1), aut.CENTRAL),
    crit.COR_2_6: (crit.cor_2_6, None, (), aut.IA_STAR, aut.CENTRAL),
    crit.COR_2_7: (crit.cor_2_7, None, (), aut.CENTRAL, aut.C_STAR),
    crit.COR_2_8: (crit.cor_2_8, None, (), aut.IA, aut.IA_STAR),
    crit.COR_2_9: (crit.cor_2_9, None, (), aut.IA_STAR, aut.C_STAR),
    crit.COR_2_10: (crit.cor_2_10, None, (), aut.IA, aut.C_STAR),
    crit.THM_2_12: (crit.thm_2_12, None, (), aut.IA, aut.CENTRAL),
}
SINGLE = ((0, (), (((), 0),)),)  # a single-group criterion's one block, of one row


DEFAULT_AUT_BOUND = 128


def aut_bound() -> int:
    """The largest group order whose rows are confirmed by brute force
    (env AUTCRIT_AUT_BOUND overrides); a set value that is not a positive
    integer raises ConfigError."""
    raw = os.environ.get("AUTCRIT_AUT_BOUND")
    if not raw:
        return DEFAULT_AUT_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"AUTCRIT_AUT_BOUND={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"AUTCRIT_AUT_BOUND={raw!r} is not positive")
    return value


def verify_group(
    name: str,
    g: FiniteGroup,
    criteria_filter: list[str] | None = None,
    force: bool = False,
    explicit: bool = False,
) -> Report:
    """Run criteria against brute force for one group.

    ``explicit`` means the caller asked for these criteria by id, so an
    inapplicable criterion raises instead of being skipped.  Above
    ``aut_bound()``, unless ``force`` lifts it, every row is skipped with
    no call into ``automorphisms``.

    One loop walks every criterion's blocks and writes every row.  A
    verdict is found by its int key and holds the head id of each observed
    value (or skip note) seen with it.  The right side is read by the first
    confirmed row that needs it and kept for the rest of its block, or of
    its criterion when it is a distinguished tag; a refused side is asked
    for again by the next row.  Each row's elapsed_ms is its decision time
    between two ``perf_counter_ns`` reads, any side it reads or counts
    included (one read shared by consecutive rows was measured and saved
    nothing); the whole microseconds become one float object per distinct
    value when the loop ends.
    """
    # Read up front, so a malformed AUTCRIT_AUT_BOUND fails every run,
    # not only the runs that reach a search.
    bound = aut_bound()
    skip = "" if force or g.n <= bound else (
        f"skipped: group order {g.n} exceeds automorphism bound {bound}")
    pp = g.prime_power()
    p = pp[0] if pp else None
    report = Report(name, g.n, p, group_summary(g, p))
    selected = selected_criteria(criteria_filter)
    if g.n == 1 or g.is_abelian():
        if explicit:
            raise AbelianInputError(
                f"{name} is abelian; criteria apply to non-abelian p-groups only"
            )
        report.notes.append("abelian input: all criteria skipped (ABELIAN_INPUT)")
        return report
    normals = g.normal_subgroups() if any(CRITERIA[c][1] for c in selected) else []
    report.lattice = tuple(s.sorted_members for s in normals)
    # |Aut^M_N| for a swept side (M, N), M central, at orders[at[M] + N]:
    # one row of the table per subgroup of Z(G), filled whole on first use
    zsubs, above = (center_subgroups(g), containing(g)) if normals else ([], [])
    at: list = [None] * len(normals)
    for k, m in enumerate(zsubs):
        at[m] = k * len(normals)
    orders: list = [None] * (len(zsubs) * len(normals))

    def count(m: int, n: int) -> int:
        row = above[m]  # M's row: every N above M
        sides = aut.aut_orders(g, normals[m], [normals[i] for i in row])
        for i, k in zip(row, sides):
            orders[at[m] + i] = k
        return orders[at[m] + n]

    hs, es, xs = report.head_of, report.elapsed, report.args
    for cid in sorted(selected):  # rows are written in output order
        predicate, sweep, _, left, right = CRITERIA[cid]
        # verdict key -> (predicted_equal, clause, {observed or skip note: head id})
        verdicts: dict = {}
        swept = sweep and not skip  # a row reads the order table
        if swept:
            # the right side, read by the first confirmed row that needs it
            # and kept while it stays the same: the cell (rm, rn) of the order
            # table at positions ri, rj of each block's rest, or for the
            # criterion C* = Aut^Z_Z as the cell (Z(G), Z(G)) or, with rm
            # None, the order of a distinguished set
            cell = not isinstance(right, str)
            if cell:
                ri, rj = right[0] - 1, right[1] - 1
            else:
                rm = rn = zsubs[-1] if right == aut.C_STAR else None
            large = 0
        for key, rest, pairs in sweep(g) if sweep else SINGLE:
            if swept:
                n = rest[0]  # the left side's N
                if cell:
                    rm, rn = rest[ri], rest[rj]
                    large = 0
            for first, i in pairs:
                t0 = perf_counter_ns()
                args = first + rest
                note = skip
                v = verdicts.get(key + i)
                if v is None:
                    try:
                        verdict = predicate(g, *(normals[x] for x in args))
                    except ClassNotTwoError as exc:
                        if explicit:
                            raise
                        report.notes.append(f"{cid}: skipped ({exc})")
                        continue
                    v = verdicts[key + i] = (verdict.predicted_equal, verdict.clause, {})
                try:
                    if swept:  # the left side is a subgroup of the right
                        m = args[0]
                        small = orders[at[m] + n] or count(m, n)
                        large = large or (orders[at[rm] + rn] or count(rm, rn) if rm is not None
                                          else len(aut.distinguished(g, right)))
                        if large % small:
                            raise InvariantError(
                                f"{cid}: left order {small} does not divide {large}")
                        observed = small == large
                    elif skip:  # no call into automorphisms
                        observed = None
                    else:
                        observed = aut.autset_equal(aut.distinguished(g, left),
                                                    aut.distinguished(g, right))
                except OrderBoundExceededError as exc:
                    observed, note = None, f"skipped: {exc}"
                us = (perf_counter_ns() - t0 + 500) // 1000
                h = v[2].get(note or observed)
                if h is None:
                    predicted, clause, heads = v
                    match = None if observed is None else observed == predicted
                    h = heads[note or observed] = report.intern(
                        Head(name, g.n, p, cid, predicted, observed, match, clause, note))
                hs.append(h)
                es.append(us)
                xs.append(args)
    # each distinct whole-µs elapsed becomes one float object of it in ms
    ms = {us: us / 1000 for us in set(es)}
    es[:] = map(ms.__getitem__, es)
    return report


def verify_specs(
    specs: list[GroupSpec],
    criteria_filter: list[str] | None = None,
    force: bool = False,
) -> list[Report]:
    reports = []
    for spec in sorted(specs, key=lambda s: s.name):
        g = build_group(spec)
        reports.append(verify_group(spec.name, g, criteria_filter, force))
    return reports


def selected_criteria(criteria_filter: list[str] | None = None) -> list[str]:
    """The criterion ids to run: each of ``criteria_filter`` once, in
    first-seen order, or every criterion; an unknown id raises ConfigError."""
    selected = list(dict.fromkeys(criteria_filter or CRITERIA))
    for c in selected:
        if c not in CRITERIA:
            raise ConfigError(f"unknown criterion id {c!r}")
    return selected


def select_specs(max_order: int | None = None, prime: int | None = None) -> list[GroupSpec]:
    """The catalog groups of order at most ``max_order`` and of prime
    ``prime``; a ``max_order`` below 1 or a ``prime`` that is not a prime
    raises ConfigError, as it could select no group."""
    if max_order is not None and max_order < 1:
        raise ConfigError(f"maximum order {max_order} is below 1")
    if prime is not None and not is_prime(prime):
        raise ConfigError(f"{prime} is not a prime")
    specs = []
    for spec in catalog():
        if prime is not None and spec.prime != prime:
            continue
        if max_order is not None and build_group(spec).n > max_order:
            continue
        specs.append(spec)
    return specs


def reports_to_json_lines(reports: list[Report]) -> str:
    """One ``json.dumps`` line per row, and no text at all for no rows.

    All but the elapsed_ms value is dumped once per head of a report, and
    each distinct line once per report: rows of one head whose elapsed_ms
    is one float object (``verify_group`` shares them) reuse one string, so
    the text is joined from shared lines, not from one new string per row.
    A line is keyed by the head id, the value and its identity, so equal
    values of another type or sign (1 and 1.0, 0.0 and -0.0) keep their
    own text."""
    lines = []
    for rep in reports:
        starts = [json.dumps(dict(zip(JSON_FIELDS[:-1], h)))[:-1] + ', "elapsed_ms": '
                  for h in rep.heads]
        done: dict = {}  # (head id, elapsed_ms, its id) -> the row's line
        for k in zip(rep.head_of, rep.elapsed, map(id, rep.elapsed)):
            line = done.get(k)
            if line is None:
                line = done[k] = starts[k[0]] + json.dumps(k[1]) + "}\n"
            lines.append(line)
    return "".join(lines)


def report_to_text(report: Report, verbose: bool = False) -> str:
    lines = [f"== {report.group} =="]
    lines.append("  " + "  ".join(f"{k}={v}" for k, v in report.summary.items()))
    for note in report.notes:
        lines.append(f"  note: {note}")
    heads, counts = report.heads, Counter(report.head_of)  # rows per head id
    by_crit: dict[str, list[int]] = {}  # criterion -> its head ids
    for h, head in enumerate(heads):
        by_crit.setdefault(head.criterion, []).append(h)
    printed = {h for h, head in enumerate(heads) if verbose or head.match is False}
    shown: dict[str, list[Row]] = {}  # criterion -> its printed rows: mismatches, or all
    if printed:
        for i, h in enumerate(report.head_of):
            if h in printed:
                shown.setdefault(heads[h].criterion, []).append(report.row(i))
    for cid, hs in sorted(by_crit.items()):
        n = {True: 0, None: 0, False: 0}
        for h in hs:
            n[heads[h].match] += counts[h]
        total = sum(n.values())
        if total == 1:
            r = heads[hs[0]]
            status = "MATCH" if r.match else ("SKIPPED" if r.match is None else "MISMATCH")
            lines.append(
                f"  {cid:10s} predicted={_tf(r.predicted)} observed={_tf(r.observed)}"
                f" clause={r.clause:20s} {status}"
            )
            continue
        status = "MISMATCH" if n[False] else ("PARTIAL" if n[None] else "MATCH")
        lines.append(
            f"  {cid:10s} tuples={total} match={n[True]} skipped={n[None]}"
            f" mismatch={n[False]} {status}"
        )
        labels = CRITERIA[cid][2]
        for r in shown.get(cid, ()):
            # the skip reason, else each swept subgroup's order and members
            note = r.note or " ".join(f"{k}=order {len(ms)} {{{','.join(map(str, ms))}}}"
                                      for k, ms in zip(labels, map(report.lattice.__getitem__,
                                                                   r.args)))
            lines.append(
                f"    predicted={_tf(r.predicted)} observed={_tf(r.observed)}"
                f" clause={r.clause} {note}"
            )
    return "\n".join(lines)


def _tf(v) -> str:
    return "-" if v is None else ("true" if v else "false")
