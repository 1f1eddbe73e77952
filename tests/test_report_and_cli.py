"""Tests for reporting helpers and the CLI front end."""

import importlib
from pathlib import Path

import pytest

from repro import cli
from repro.cli import BENCHES, EXPERIMENTS, main
from repro.report import ascii_chart, format_table, histogram, summarize


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "long header"], [[1, 2], [333, 4]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long header" in lines[1]
        assert lines[2].startswith("-")
        # columns align: '333' padded to width of 'a' column
        assert lines[4].startswith("333")

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestAsciiChart:
    def test_contains_points(self):
        text = ascii_chart([(0, 1), (10, 100)], width=20, height=5)
        assert text.count("*") >= 2

    def test_log_scale_handles_large_ranges(self):
        text = ascii_chart([(0, 0.001), (1, 1000)], log_y=True)
        assert "log scale" in text

    def test_empty_series(self):
        assert "(no data)" in ascii_chart([], title="t")

    def test_single_point(self):
        text = ascii_chart([(5, 5)])
        assert "*" in text


class TestHistogram:
    def test_buckets_sum_to_n(self):
        values = [1.0, 1.1, 2.0, 5.0, 5.1, 5.2]
        text = histogram(values, bins=4)
        counts = [int(line.rsplit(" ", 1)[-1])
                  for line in text.splitlines() if "|" in line]
        assert sum(counts) == len(values)

    def test_empty(self):
        assert "(no data)" in histogram([], title="h")


class TestSummarize:
    def test_stats(self):
        text = summarize([1.0, 2.0, 3.0])
        assert "n=3" in text and "median=2" in text

    def test_empty(self):
        assert "no samples" in summarize([])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig04", "tab13"):
            assert name in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("argv", [["fig09", "--groups", "2"],
                                      ["tab13", "--shards", "2"],
                                      ["all", "--groups", "2"]])
    def test_fleet_flags_only_for_tenants(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "'tenants' only" in capsys.readouterr().err

    def test_all_experiments_registered(self):
        expected = {"tables", "fig01", "fig02", "fig04", "fig05", "fig06",
                    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
                    "tab13", "chaos", "recovery", "telemetry", "counters",
                    "trace", "mitigate", "tenants"}
        assert set(EXPERIMENTS) == expected

    def test_run_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_run_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_run_fig01_fast(self, capsys):
        assert main(["fig01", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "RNR NAK" in out


class TestBenchGates:
    @pytest.mark.parametrize("gate", sorted(BENCHES))
    def test_gate_names_a_bench_and_a_committed_baseline(self, gate):
        name, *argv = BENCHES[gate]
        module = importlib.import_module(f"repro.bench.{name}")
        assert callable(module.main)
        root = Path(__file__).resolve().parents[1]
        for flag, value in zip(argv, argv[1:]):
            if flag == "--check":
                assert (root / value).is_file(), value

    def test_argparse_exit_does_not_hide_later_gates(self, monkeypatch,
                                                     tmp_path, capsys):
        monkeypatch.setattr(cli, "BENCHES", {
            "first": ("scalebench", "--no-such-flag"),
            "second": ("tracebench", "--no-such-flag"),
        })
        assert cli._bench_check_all(str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "CHECK FAILED: first crashed" in err
        assert "CHECK FAILED: second crashed" in err
