"""Names of the workloads, and names and units of the metrics printed.

Kept apart from ``workloads`` so that the entry point can label results
without importing autcrit.  ``selftest.py`` checks all three against
``BENCHMARK.json``.
"""

WORKLOADS = ("corpus", "stress", "tables")

END_TO_END = {
    "pass_s": "s",
    "rows_per_s": "1/s",
    "group_ms_p50": "ms",
    "group_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "confirmed_ratio": "ratio",
}

PER_LAYER = {
    "catalog.build_group.s": "s",
    "catalog.build_group.calls": "count",
    "groups.from_permutation_generators.self_s": "s",
    "groups.FiniteGroup.s": "s",
    "groups.FiniteGroup.calls": "count",
    "groups.from_table.self_s": "s",
    "groups.normal_subgroups.s": "s",
    "groups.normal_subgroups.calls": "count",
    "groups.quotient.s": "s",
    "groups.quotient.calls": "count",
    "formats.parse_group_text.self_s": "s",
    "automorphisms.automorphism_group.s": "s",
    "automorphisms.automorphism_group.calls": "count",
    "automorphisms.distinguished.s": "s",
    "automorphisms.aut_upper_lower.s": "s",
    "automorphisms.aut_upper_lower.calls": "count",
    "automorphisms.autset_equal.s": "s",
    "automorphisms.autset_equal.calls": "count",
    "automorphisms.auts_returned": "count",
    "criteria.s": "s",
    "criteria.calls": "count",
    "abelian.s": "s",
    "abelian.calls": "count",
    "report.group_summary.s": "s",
    "report.verify_group.self_s": "s",
    "report.render.s": "s",
    "report.rows": "count",
    "report.rows_skipped": "count",
    "trace.overhead_s": "s",
}

