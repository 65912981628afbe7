"""Regenerate ``reference.json``, the expected output of every workload.

    python3 perfbench/make_reference.py

For each group of the catalog and of the stress set it records the
``group_summary`` and the multiset of ``(criterion, predicted, observed,
match, clause)`` verify rows.  It goes through the library's own path
(``catalog.build_group`` with its unrelabelled generators), not through
the benchmark's seeded inputs, so a relabelling bug cannot hide in both.
Both quantities are isomorphism invariants, so the reference holds for
every seed.  Regenerate only when the library's output is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A stray bound would turn brute-force confirmations into skipped rows.
os.environ.pop("AUTCRIT_AUT_BOUND", None)
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCE, catalog, report, specs_for  # noqa: E402


def entry(spec) -> dict:
    g = catalog.build_group(spec, fresh=True)
    rep = report.verify_group(spec.name, g)
    rows = Counter((r.criterion, r.predicted, r.observed, r.match, r.clause)
                   for r in rep.rows)
    return {
        "order": g.n,
        "summary": rep.summary,
        "rows": [list(k) + [n] for k, n in sorted(rows.items(), key=repr)],
    }


def main() -> int:
    specs = specs_for("corpus") + specs_for("stress")
    groups = {s.name: entry(s) for s in specs}
    REFERENCE.write_text(json.dumps({"groups": groups}, indent=1, sort_keys=True) + "\n")
    total = sum(n for e in groups.values() for *_, n in e["rows"])
    print(f"{len(groups)} groups, {total} rows -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
