"""Command-line driver: bench, verify, and replay subcommands."""

import subprocess
import sys
from pathlib import Path

import pytest

from lfindex.cli import main
from lfindex.harness import CSV_HEADER, DatasetSpec, generate_dataset, write_keyfile

DATA = Path(__file__).parent / "data"

FAST_BENCH = ["bench", "--size", "2000", "--ops", "3000", "--seed", "1"]


class TestBench:
    def test_csv_to_stdout(self, capsys):
        assert main(FAST_BENCH + ["--workload", "read-heavy"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == CSV_HEADER
        assert len(out) == 2
        fields = out[1].split(",")
        assert fields[0] == "read-heavy"
        assert int(fields[2]) == 3000
        assert float(fields[4]) > 0

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        rc = main(FAST_BENCH + ["--workload", "update-heavy",
                                "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 2
        assert str(out_path) in capsys.readouterr().out

    def test_custom_mix(self, capsys):
        rc = main(FAST_BENCH + ["--workload", "custom", "--mix", "0.2,0.5,0.3",
                                "--range-frac", "0.1"])
        assert rc == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        searches, inserts = int(row[5]), int(row[6])
        assert inserts > searches  # the custom mix actually took effect

    def test_custom_requires_mix(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(FAST_BENCH + ["--workload", "custom"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_mix_sum(self):
        with pytest.raises(SystemExit) as exc:
            main(FAST_BENCH + ["--workload", "custom", "--mix", "0.5,0.4,0.2"])
        assert exc.value.code == 2

    def test_negative_range_width(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(FAST_BENCH + ["--workload", "read-heavy", "--range-frac", "0.1",
                               "--range-width", "-3"])
        assert exc.value.code == 2
        assert "range_width" in capsys.readouterr().err

    def test_unknown_dataset_kind(self):
        with pytest.raises(SystemExit) as exc:
            main(FAST_BENCH + ["--workload", "read-heavy", "--dataset", "weibull"])
        assert exc.value.code == 2

    def test_file_dataset(self, capsys, tmp_path):
        keys = generate_dataset(DatasetSpec(size=1500, seed=3))
        path = tmp_path / "keys.bin"
        write_keyfile(keys, path)
        rc = main(["bench", "--workload", "read-heavy", "--ops", "2000",
                   "--dataset", f"file:{path}", "--seed", "1"])
        assert rc == 0
        assert CSV_HEADER in capsys.readouterr().out

    def test_missing_file_dataset(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workload", "read-heavy", "--ops", "100",
                  "--dataset", "file:/nonexistent/keys.bin"])
        assert exc.value.code == 2

    def test_bin_thresholds_that_leave_lists_no_room(self):
        # a bin of at most 0 keys would be full before its first key
        with pytest.raises(SystemExit) as exc:
            main(FAST_BENCH + ["--workload", "read-heavy", "--olb-threshold", "0"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        # an unknown flag, and flags of knobs the index does not have
        for flag in (["--frobnicate"], ["--tlb-threshold", "1024"], ["--fanout", "8"]):
            with pytest.raises(SystemExit) as exc:
                main(FAST_BENCH + ["--workload", "read-heavy"] + flag)
            assert exc.value.code == 2, flag


class TestVerify:
    def test_selected_quick_criteria(self, capsys):
        assert main(["verify", "--quick", "--criteria", "3,9"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 2
        assert out[0].startswith("PASS 3 ")
        assert out[1].startswith("PASS 9 ")

    def test_bad_criteria_list(self, capsys):
        for bad in ("3,x", "0", "10"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--criteria", bad])
            assert exc.value.code == 2


class TestReplay:
    def test_valid_history(self, capsys):
        rc = main(["replay", str(DATA / "valid_history.log")])
        assert rc == 0
        assert "linearizable:" in capsys.readouterr().out

    def test_planted_violation(self, capsys):
        rc = main(["replay", str(DATA / "planted_violation.log")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "NOT linearizable" in out
        assert "424242" in out  # the offending read appears in the prefix

    def test_malformed_log(self, capsys, tmp_path):
        path = tmp_path / "h.log"
        path.write_text("0 1 T0 shazam 5 = none\n")
        rc = main(["replay", str(path)])
        assert rc == 2
        assert "h.log:1" in capsys.readouterr().err

    def test_key_outside_the_domain(self, capsys, tmp_path):
        path = tmp_path / "h.log"
        path.write_text(f"0 1 T0 insert 5 1 = true\n2 3 T0 search {2**63} = none\n")
        rc = main(["replay", str(path)])
        assert rc == 2
        assert "h.log:2" in capsys.readouterr().err

    def test_missing_log(self, capsys):
        rc = main(["replay", "/nonexistent/h.log"])
        assert rc == 2
        assert capsys.readouterr().err


class TestEntryPoints:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "bench" in capsys.readouterr().out

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "lfindex", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "usage: lfindex" in proc.stdout
