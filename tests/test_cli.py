"""Command-line interface: exit codes, outputs, determinism."""
import json
import subprocess
import sys

import pytest

import asymlp as a
from asymlp.cli import main


class TestExitCodes:
    def test_check_pass_is_zero(self, capsys):
        assert main(["check", "u:k=1..6,p=1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_check_fail_is_two(self, capsys):
        assert main(["check", "g:k=1..6,p=1"]) == 2
        out = capsys.readouterr().out
        assert "fail" in out

    def test_usage_error_is_one(self, capsys):
        assert main(["check"]) == 1
        assert main(["bogus-subcommand"]) == 1

    def test_bad_family_descriptor_is_one(self, capsys):
        assert main(["check", "zz:k=3"]) == 1
        err = capsys.readouterr().err
        assert "unknown family" in err

    def test_missing_file_is_one(self, capsys):
        assert main(["norm", "/nonexistent/family.json:"]) == 1

    def test_overflowing_tail_is_one(self, tmp_path, capsys):
        # the lp tail integral is 3**700 / 1399, past the float range
        f = a.grid_function((-1, 1), 1, [0.1, 0.2], a.TailSpec.power_law(3.0, 2.0, 1))
        path = tmp_path / "fam.json"
        a.save_json(a.family_to_dict(a.FamilySpec("tail", 1.0, (f,), (1,))), path)
        assert main(["norm", str(path), "--p", "700"]) == 1
        assert "overflows" in capsys.readouterr().err

    def test_overflowing_grouped_sum_is_one(self, tmp_path, capsys):
        f = a.grid_function((0, 2), 1, [1e308, 1.5e308])
        path = tmp_path / "fam.json"
        a.save_json(a.family_to_dict(a.FamilySpec("big", 1.0, (f,), (1,))), path)
        assert main(["norm", str(path)]) == 1
        assert "grouped sum overflows" in capsys.readouterr().err

    def test_lift_level_failure_is_two(self, capsys):
        rc = main(["net", "f:k=1..12,p=1", "--method", "truncation-lift"])
        assert rc == 2
        assert "level condition fails" in capsys.readouterr().err


class TestNorm:
    def test_table_lists_every_member(self, capsys):
        assert main(["norm", "f:k=1..4,p=2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 6  # header x2 + 4 rows
        assert "1.41421356237" in out  # sqrt(2)

    def test_p_override(self, capsys):
        assert main(["norm", "f:k=1..2,p=1", "--p", "2"]) == 0
        assert "p=2" in capsys.readouterr().out


class TestCheck:
    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "u:k=1..6,p=1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "condition_report"

    def test_repeatable_eps(self, capsys):
        main(["check", "u:k=1..6,p=1", "--eps", "0.5", "--eps", "0.25"])
        out = capsys.readouterr().out
        assert "eps=0.5" in out and "eps=0.25" in out

    def test_shift_lattice_flag(self, capsys):
        assert main(["check", "g:k=1..4,p=1", "--shifts", "1/32:8"]) == 2
        assert "pass" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", "h:k=1..4,p=1", "--out", str(o1)])
        main(["check", "h:k=1..4,p=1", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_family_file_input(self, tmp_path, capsys):
        fam = a.spike_family(4, 1.0)
        path = tmp_path / "fam.json"
        a.save_json(a.family_to_dict(fam), path)
        assert main(["check", str(path)]) == 0


class TestNet:
    def test_greedy_output(self, capsys):
        assert main(["net", "g:k=1..5,p=1"]) == 0
        out = capsys.readouterr().out
        assert "5 centers" in out
        assert "passed True" in out

    def test_net_out_includes_lift_centers(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc = main(["net", "u:k=1..8,p=1", "--method", "truncation-lift",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["method"] == "truncation-lift"
        assert data["centers"]  # lift nets embed their truncated centers


class TestReport:
    def test_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        assert main(["report", "spike:k=1..4,p=1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "diagnostic_bundle"
        assert set(data) == {"kind", "family", "report", "nets"}


class TestConsoleScript:
    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymlp.cli", "norm", "g:k=1..2,p=1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "F-norm" in proc.stdout
