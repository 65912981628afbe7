import json
import subprocess
import sys

import pytest

from autcrit import cli
from autcrit import criteria as crit
from autcrit import report as report_mod
from autcrit.catalog import build_group, get_spec
from autcrit.criteria import CriterionVerdict
from autcrit.groups import DEFAULT_INGEST_BOUND
from autcrit.report import verify_group

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

    def test_abelian_without_filter_is_notice(self, capsys):
        assert cli.main(["verify", "C4"]) == 0
        out = capsys.readouterr().out
        assert "ABELIAN_INPUT" in out

    def test_abelian_with_filter_is_error(self, capsys):
        assert cli.main(["verify", "C4", "--criterion", "COR_2_6"]) == 2
        assert "AbelianInputError" in capsys.readouterr().err

    def test_class_two_criterion_on_class_three(self, capsys):
        assert cli.main(["verify", "D16", "--criterion", "COR_2_8"]) == 2
        assert "ClassNotTwoError" in capsys.readouterr().err

    def test_unknown_criterion(self, capsys):
        assert cli.main(["verify", "Q8", "--criterion", "COR_9_9"]) == 2

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

    def test_bound_skips_and_force_restores(self, monkeypatch):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "4")
        g = build_group(get_spec("Q8"), fresh=True)
        rep = verify_group("Q8", g, ["COR_2_6"], explicit=True)
        assert rep.rows[0].observed is None and rep.rows[0].match is None
        g2 = build_group(get_spec("Q8"), fresh=True)
        rep2 = verify_group("Q8", g2, ["COR_2_6"], force=True, explicit=True)
        assert rep2.rows[0].observed is True and rep2.rows[0].match is True


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

    def test_empty_selection(self, capsys):
        assert cli.main(["verify-all", "--max-order", "1"]) == 0
        assert "0 groups" in capsys.readouterr().out


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
