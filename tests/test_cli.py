import gc
import json
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcrit import automorphisms, cli
from autcrit import criteria as crit
from autcrit import report as report_mod
from autcrit.catalog import build_group, eval_recipe, get_spec
from autcrit.criteria import CriterionVerdict
from autcrit.groups import DEFAULT_INGEST_BOUND
from autcrit.report import verify_group
from conftest import STRESS_RECIPES
from oracles import TUPLE_SWEEPS, report_of, verify_group_by_tuples

JSON_FIELDS = [
    "group", "order", "prime", "criterion", "predicted", "observed",
    "match", "clause", "elapsed_ms",
]


class TestList:
    def test_text(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Q8" in out and "heisenberg 3" in out

    def test_json(self, capsys):
        assert cli.main(["list", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = [json.loads(ln) for ln in lines]
        assert any(e["name"] == "M16" and e["order"] == 16 for e in entries)


class TestAnalyze:
    def test_nonabelian(self, capsys):
        assert cli.main(["analyze", "Q8"]) == 0
        out = capsys.readouterr().out
        assert "cl" in out and "purely_nonabelian" in out

    def test_abelian_notice(self, capsys):
        assert cli.main(["analyze", "C8"]) == 0
        out = capsys.readouterr().out
        assert "abelian" in out

    def test_json(self, capsys):
        assert cli.main(["analyze", "D16", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cl"] == "3"

    def test_path(self, tmp_path, capsys):
        path = tmp_path / "k4.cayley"
        path.write_text("cayley 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
        assert cli.main(["analyze", str(path)]) == 0

    def test_path_identity_off_index_0(self, tmp_path, capsys):
        path = tmp_path / "c2.cayley"
        path.write_text("cayley 2\n1 0\n0 1\n")
        assert cli.main(["analyze", str(path)]) == 0

    def test_oversize_header(self, tmp_path, capsys):
        path = tmp_path / "big.perm"
        path.write_text(f"perm {DEFAULT_INGEST_BOUND + 1}\n()\n")
        assert cli.main(["analyze", str(path)]) == 2
        assert "OrderBoundExceeded" in capsys.readouterr().err

    def test_header_size_below_1(self, tmp_path, capsys):
        # once read as the trivial group with status 0
        path = tmp_path / "empty.perm"
        path.write_text("perm 0\n()\n")
        assert cli.main(["analyze", str(path)]) == 2
        assert "GroupFileError" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, error", [("99999999999999999999999", "NotLatinSquareError"),
                                              ("x", "GroupFileError")])
    def test_bad_entry(self, tmp_path, capsys, entry, error):
        # an entry beyond int64 or not an integer: a typed error and status 2
        path = tmp_path / "bad.cayley"
        path.write_text(f"cayley 2\n0 1\n1 {entry}\n")
        assert cli.main(["analyze", str(path)]) == 2
        assert error in capsys.readouterr().err

    def test_unknown(self, capsys):
        assert cli.main(["analyze", "NoSuchGroup"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_q8_all_match(self, capsys):
        assert cli.main(["verify", "Q8"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out

    def test_single_criterion(self, capsys):
        assert cli.main(["verify", "M16", "--criterion", "THM_2_12"]) == 0
        out = capsys.readouterr().out
        assert "THM_2_12" in out and "predicted=false observed=false" in out

    def test_repeated_criterion_runs_once(self, capsys):
        args = ["verify", "Q8", "--criterion", "COR_2_6", "--criterion", "THM_2_12",
                "--criterion", "COR_2_6"]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines[2:]] == ["COR_2_6", "THM_2_12"]
        assert "predicted=true observed=true" in lines[2]
        assert cli.main(args + ["--format", "json"]) == 0
        rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [r["criterion"] for r in rows] == ["COR_2_6", "THM_2_12"]

    def test_abelian_without_filter_is_notice(self, capsys):
        assert cli.main(["verify", "C4"]) == 0
        out = capsys.readouterr().out
        assert "ABELIAN_INPUT" in out
        # no rows: JSON Lines output is empty, not one blank line
        for argv in (["verify", "C4"], ["verify-all", "--p", "3", "--max-order", "9"]):
            assert cli.main([*argv, "--format", "json"]) == 0
            assert capsys.readouterr().out == "", argv

    def test_abelian_with_filter_is_error(self, capsys):
        assert cli.main(["verify", "C4", "--criterion", "COR_2_6"]) == 2
        assert "AbelianInputError" in capsys.readouterr().err

    def test_class_two_criterion_on_class_three(self, capsys):
        assert cli.main(["verify", "D16", "--criterion", "COR_2_8"]) == 2
        assert "ClassNotTwoError" in capsys.readouterr().err

    def test_unknown_criterion(self, capsys):
        assert cli.main(["verify", "Q8", "--criterion", "COR_9_9"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_verify_from_file(self, tmp_path, capsys):
        path = tmp_path / "d8.perm"
        path.write_text("perm 4\n(1 2 3 4)\n(1 3)\n")
        assert cli.main(["verify", str(path)]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_verify_non_p_group_file(self, tmp_path, capsys):
        path = tmp_path / "s3.perm"
        path.write_text("perm 3\n(1 2 3)\n(1 2)\n")
        assert cli.main(["verify", str(path)]) == 2
        assert "NotPGroup" in capsys.readouterr().err

    def test_closed_pipe_exits_141(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "autcrit.cli", "verify", "Q8", "--verbose"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the child has imported anything
        status = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert status == 141, err
        assert "Traceback" not in err

    def test_json_schema(self, capsys):
        assert cli.main(["verify", "Q8", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 10
        for ln in lines:
            row = json.loads(ln)
            assert list(row.keys()) == JSON_FIELDS
            assert row["match"] is True

    def test_row_writer_matches_json_dumps(self):
        # every null/true/false combination, a name json must escape, and
        # floats whose text json writes as 0.0, 1e-05 and 12345.678
        names = ['Q"8\\x', "C\u00e9", "D8"]
        times = [0.0, 1e-05, 12345.678]
        rows = [
            report_mod.Row(names[i % 3], 8, 2, "COR_2_3", pred, obs, match,
                           "CASE_I" if i % 2 else 'N"ONE', times[i % 3])
            for i, (pred, obs, match) in enumerate(product((True, False, None), repeat=3))
        ]
        # one elapsed_ms under two line starts; -0.0 after 0.0 and 1 after
        # 1.0, which a cache keyed on the value alone would write as the
        # equal value before them; and inf and nan, which json writes as
        # Infinity and NaN
        rows += [
            report_mod.Row(name, 8, 2, "COR_2_6", True, True, True, "NONE", e)
            for name, e in (("D8", 2.5), ("Q8", 2.5), ("D8", 0.0), ("D8", -0.0), ("D8", 1.0),
                            ("D8", 1), ("Q8", float("inf")), ("Q8", float("nan")))
        ]
        rep = report_of("D8", 8, 2, rows)
        want = "".join(json.dumps({f: getattr(r, f) for f in report_mod.JSON_FIELDS}) + "\n"
                       for r in rows)
        assert report_mod.reports_to_json_lines([rep, rep]) == want + want
        assert report_mod.reports_to_json_lines([]) == ""

    def test_row_times_are_whole_microseconds(self, stress_groups):
        # elapsed_ms is one row's decision time in ms, to the microsecond
        groups = sorted(stress_groups.items()) + [("M27", build_group(get_spec("M27")))]
        for name, g in groups:
            rows = verify_group(name, g).rows
            assert rows, name
            for r in rows:
                e = r.elapsed_ms
                assert type(e) is float and e >= 0 and round(e, 3) == e, (name, e)

    def test_injected_wrong_predicate_fails(self, monkeypatch, capsys):
        _, *sides = report_mod.CRITERIA[crit.COR_2_6]

        def wrong(g):
            v = crit.cor_2_6(g)
            return CriterionVerdict(
                crit.COR_2_6,
                not v.predicted_equal,
                crit.NONE if v.predicted_equal else crit.DEGENERATE_EQUALITY,
            )

        monkeypatch.setitem(report_mod.CRITERIA, crit.COR_2_6, (wrong, *sides))
        assert cli.main(["verify", "Q8"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_swept_mismatches_printed(self, monkeypatch):
        # a COR_2_3 predicate that is wrong exactly on the keys with |M1| < |M2|
        predicate, *rest = report_mod.CRITERIA[crit.COR_2_3]

        def flipped(g, m1, n1, m2, n2):
            v = predicate(g, m1, n1, m2, n2)
            if m1.order == m2.order:
                return v
            return CriterionVerdict(crit.COR_2_3, not v.predicted_equal,
                                    crit.NONE if v.predicted_equal else crit.CASE_I)

        monkeypatch.setitem(report_mod.CRITERIA, crit.COR_2_3, (flipped, *rest))
        rep = verify_group("D8xC2", build_group(get_spec("D8xC2")), [crit.COR_2_3])
        rows = rep.rows
        wrong = [i for i, r in enumerate(rows) if r.match is False]
        assert 0 < len(wrong) < len(rows)
        text = report_mod.report_to_text(rep).splitlines()
        verbose = report_mod.report_to_text(rep, verbose=True).splitlines()
        # the group line, its summary and the criterion's line, then its rows
        assert text[:3] == verbose[:3] and len(verbose) == 3 + len(rows)
        assert text[2] == (f"  COR_2_3    tuples={len(rows)} match={len(rows) - len(wrong)}"
                           f" skipped=0 mismatch={len(wrong)} MISMATCH")
        assert text[3:] == [verbose[3 + i] for i in wrong]
        assert all(" M1=order " in line for line in text[3:])

    def test_bound_skips_and_force_restores(self, monkeypatch):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "4")
        g = build_group(get_spec("Q8"), fresh=True)
        rep = verify_group("Q8", g, ["COR_2_6"], explicit=True)
        assert rep.rows[0].observed is None and rep.rows[0].match is None
        g2 = build_group(get_spec("Q8"), fresh=True)
        rep2 = verify_group("Q8", g2, ["COR_2_6"], force=True, explicit=True)
        assert rep2.rows[0].observed is True and rep2.rows[0].match is True

    def test_force_keeps_the_enumeration_bound(self, tmp_path, capsys):
        # --force lifts AUTCRIT_AUT_BOUND only: He3xC9 (order 243) is still
        # above the subgroup enumeration bound
        table = eval_recipe("product(heisenberg 3, cyclic 9)").table
        path = tmp_path / "he3xc9.cayley"
        path.write_text("cayley 243\n" + "".join(" ".join(map(str, r)) + "\n" for r in table))
        message = ("error: OrderBoundExceededError: subgroup enumeration bound 128 exceeded"
                   " (order 243)\n")
        for force in ([], ["--force"]):
            assert cli.main(["verify", str(path), *force]) == 2, force
            captured = capsys.readouterr()
            assert captured.err == message and captured.out == "", force

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_env_bound_exits_2(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", raw)
        assert cli.main(["verify-all", "--p", "3"]) == 2
        assert "ConfigError" in capsys.readouterr().err


class TestVerifyAll:
    def test_small_slice(self, capsys):
        assert cli.main(["verify-all", "--max-order", "8"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out

    def test_prime_filter_json(self, capsys):
        assert cli.main(
            ["verify-all", "--p", "3", "--max-order", "27", "--format", "json"]
        ) == 0
        rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert rows
        assert all(r["prime"] == 3 for r in rows)
        groups = {r["group"] for r in rows}
        assert groups == {"He3", "M27"}

    def test_rows_sorted(self, capsys):
        assert cli.main(["verify-all", "--max-order", "8", "--format", "json"]) == 0
        rows = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        keys = [(r["group"], r["criterion"]) for r in rows]
        assert keys == sorted(keys)

    def test_summary_counts_skipped(self, monkeypatch, capsys):
        # every 3-group in the catalog has order above 16
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "16")
        assert cli.main(["verify-all", "--p", "3"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "== 23 groups, 908 rows, 908 skipped, 0 mismatches =="

    def test_strict_fails_on_unconfirmed_rows(self, monkeypatch, capsys):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "16")
        assert cli.main(["verify-all", "--p", "3"]) == 0
        default = capsys.readouterr().out
        assert cli.main(["verify-all", "--p", "3", "--strict"]) == 1
        assert capsys.readouterr().out == default
        # M27 lies above the bound unless forced; Q8 lies inside it
        assert cli.main(["verify", "M27", "--strict"]) == 1
        assert cli.main(["verify", "M27", "--strict", "--force"]) == 0
        assert cli.main(["verify", "Q8", "--strict"]) == 0

    def test_empty_selection(self, capsys):
        assert cli.main(["verify-all", "--max-order", "1"]) == 0
        assert "0 groups" in capsys.readouterr().out
        assert cli.main(["verify-all", "--p", "5"]) == 0  # a prime with no catalog group
        assert "0 groups" in capsys.readouterr().out
        # bad selection flags fail before any group is selected, not vacuously
        for argv in (["--p", "4"], ["--p", "1"], ["--p", "5", "--criterion", "BOGUS"],
                     ["--max-order", "8", "--criterion", "BOGUS"], ["--max-order", "0"],
                     ["--max-order", "-5"]):
            assert cli.main(["verify-all", *argv]) == 2, argv
            captured = capsys.readouterr()
            assert "ConfigError" in captured.err and captured.out == "", argv


class TestRowStore:
    """A report keeps its rows as shared heads plus per-row columns."""

    def test_verify_to_json_builds_no_row(self, monkeypatch, capsys, stress_groups):
        made = []
        real = report_mod.Row

        def recorder(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(report_mod, "Row", recorder)
        groups = sorted(stress_groups.items())
        groups += [(name, build_group(get_spec(name))) for name in ("Q8", "D8xC2", "He3")]
        reports = [verify_group(name, g) for name, g in groups]
        lines = report_mod.reports_to_json_lines(reports).count("\n")
        assert lines == sum(len(rep.head_of) for rep in reports) > 20011
        assert cli.main(["verify-all", "--max-order", "16", "--format", "json"]) == 0
        assert cli.main(["verify", "Q8xC2", "--format", "json", "--strict"]) == 0
        assert capsys.readouterr().out
        assert made == []
        # the recorder sees what reading the rows builds
        assert len(reports[-1].rows) == len(made) > 0

    def test_columns_hold_no_tracked_objects(self, stress_groups):
        rep = verify_group("Q8xC4xC2", stress_groups["Q8xC4xC2"])
        gc.collect()
        assert len(rep.head_of) == len(rep.elapsed) == len(rep.args) == 19259
        for column in (rep.head_of, rep.elapsed, rep.args):
            assert type(column) is list
            assert not any(map(gc.is_tracked, column))
        assert len(rep.heads) == 13

    @pytest.mark.parametrize("name", ["D16", "He3"])
    def test_rows_in_output_order_whatever_the_filter_order(self, name):
        ids = list(report_mod.CRITERIA)
        forward, backward = (verify_group(name, build_group(get_spec(name)), order)
                             for order in (ids, ids[::-1]))
        criteria = [forward.heads[h].criterion for h in forward.head_of]
        assert criteria == sorted(criteria)
        assert forward.heads == backward.heads
        assert forward.head_of == backward.head_of
        assert forward.args == backward.args
        # D16 is of class 3, so COR_2_8 is skipped with a note
        assert forward.notes == backward.notes
        assert bool(forward.notes) == (name == "D16")

    @given(st.lists(st.builds(
        report_mod.Row,
        group=st.sampled_from(["D8", 'Q"8\\x', "C\u00e9"]) | st.text(max_size=4),
        order=st.sampled_from([8, 16, 27]),
        prime=st.sampled_from([2, 3]),
        criterion=st.sampled_from(sorted(report_mod.CRITERIA)),
        predicted=st.sampled_from([None, True, False]),
        observed=st.sampled_from([None, True, False]),
        match=st.sampled_from([None, True, False]),
        clause=st.sampled_from(["NONE", 'N"ONE']) | st.text(max_size=4),
        elapsed_ms=st.sampled_from([0.0, -0.0, 1, 1.0, float("inf"), float("nan")]) | st.floats(),
        note=st.sampled_from(["", "skipped: bound"]) | st.text(max_size=4),
        args=st.lists(st.integers(0, 40), max_size=4).map(tuple),
    ), max_size=30))
    def test_rows_round_trip(self, rows):
        rep = report_of("D8", 8, 2, rows)
        # repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows nan
        assert list(map(repr, rep.rows)) == list(map(repr, rows))
        assert report_mod.reports_to_json_lines([rep]) == "".join(
            json.dumps({f: getattr(r, f) for f in report_mod.JSON_FIELDS}) + "\n" for r in rows)


def without_elapsed(rep):
    """A report's JSON lines, each cut before its elapsed_ms."""
    return [ln.rsplit(', "elapsed_ms": ', 1)[0]
            for ln in report_mod.reports_to_json_lines([rep]).splitlines()]


def assert_same_rows(got, want, name):
    assert got.summary == want.summary and got.lattice == want.lattice, name
    assert got.heads == want.heads, name
    assert got.head_of == want.head_of, name
    assert got.args == want.args, name
    assert got.notes == want.notes, name
    assert len(got.elapsed) == len(want.elapsed), name
    assert without_elapsed(got) == without_elapsed(want), name


class TestRowPath:
    """``verify_group``'s block loop against the per-tuple loop it
    replaced, ``oracles.verify_group_by_tuples``: the same heads, head ids,
    args, notes and JSON but for elapsed_ms."""

    @staticmethod
    def groups(corpus, stress_groups):
        groups = sorted((name, g) for name, (_, g) in corpus.items())
        return groups + sorted(stress_groups.items())

    @pytest.mark.parametrize("criteria", [None] + [[c] for c in sorted(report_mod.CRITERIA)],
                             ids=["all"] + sorted(report_mod.CRITERIA))
    def test_matches_tuple_loop(self, corpus, stress_groups, criteria):
        groups = self.groups(corpus, stress_groups)
        assert len(groups) == 63
        rows = 0
        for name, g in groups:
            got = verify_group(name, g, criteria)
            assert_same_rows(got, verify_group_by_tuples(name, g, criteria), name)
            rows += len(got.head_of)
        assert rows == 31232 if criteria is None else rows > 0  # 11,221 + 20,011 in all

    def test_aut_bound_skips_match(self, monkeypatch, corpus, stress_groups):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "8")
        skipped = 0
        for name, g in self.groups(corpus, stress_groups):
            got = verify_group(name, g)
            assert_same_rows(got, verify_group_by_tuples(name, g), name)
            skipped += sum(h.observed is None for h in got.heads)
        assert skipped

    def test_member_bound_skips_match(self, monkeypatch):
        # a census or a composition above 50 members is refused, so some
        # swept rows of a block are skipped and others confirmed; each side
        # gets fresh groups, as a census once counted is memoised
        monkeypatch.setattr(automorphisms, "DEFAULT_AUT_MEMBER_BOUND", 50)
        note = "automorphisms exceed member bound 50"
        for name, recipe in sorted(STRESS_RECIPES.items()):
            got = verify_group(name, eval_recipe(recipe))
            assert_same_rows(got, verify_group_by_tuples(name, eval_recipe(recipe)), name)
            swept = [h for h in got.heads if h.criterion == crit.COR_2_3]
            assert any(h.match for h in swept), name
            assert any(h.match is None and note in h.note for h in swept), name

    def test_coarse_key_matches(self, monkeypatch, stress_groups):
        # one verdict for every COR_2_3 row, so its rows disagree with it
        # and one verdict needs a head for each observed value
        predicate, blocks, *rest = report_mod.CRITERIA[crit.COR_2_3]

        def coarse(g):
            for _, rest, pairs in blocks(g):
                yield 0, rest, [(first, 0) for first, _ in pairs]

        def coarse_tuples(g):
            for args, _ in TUPLE_SWEEPS[crit.COR_2_3](g):
                yield args, 0

        monkeypatch.setitem(report_mod.CRITERIA, crit.COR_2_3, (predicate, coarse, *rest))
        for name, g in sorted(stress_groups.items()):
            got = verify_group(name, g, [crit.COR_2_3])
            want = verify_group_by_tuples(name, g, [crit.COR_2_3],
                                          sweeps={crit.COR_2_3: coarse_tuples})
            assert_same_rows(got, want, name)
            assert {h.match for h in got.heads} == {True, False}, name

    def test_elapsed_floats_shared(self, stress_groups):
        # elapsed_ms to the microsecond, one float object per distinct value
        rep = verify_group("Q8xC4xC2", stress_groups["Q8xC4xC2"])
        assert all(type(e) is float for e in rep.elapsed)
        assert len(set(map(id, rep.elapsed))) == len(set(rep.elapsed)) < len(rep.elapsed)

    def test_json_writer_peak(self, stress_groups):
        # the lines are shared strings, so the writer's peak is about the
        # text it returns, not one new string per row on top of it
        rep = verify_group("Q8xC4xC2", stress_groups["Q8xC4xC2"])
        tracemalloc.start()
        try:
            text = report_mod.reports_to_json_lines([rep])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 19259
        assert peak <= 1.3 * len(text), peak / len(text)


class TestHom:
    def test_example(self, capsys):
        assert cli.main(["hom", "2^[2]", "2^[1,1]"]) == 0
        out = capsys.readouterr().out
        assert "order: 4" in out and "type:  2^[1,1]" in out

    def test_trivial(self, capsys):
        assert cli.main(["hom", "3^[]", "3^[2]"]) == 0
        assert "order: 1" in capsys.readouterr().out

    def test_larger(self, capsys):
        assert cli.main(["hom", "2^[2,1]", "2^[2]"]) == 0
        assert "order: 8" in capsys.readouterr().out

    def test_prime_mismatch(self, capsys):
        assert cli.main(["hom", "2^[1]", "3^[1]"]) == 2
        assert "PrimeMismatch" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert cli.main(["hom", "junk", "2^[1]"]) == 2
