"""Tests for the analysis helpers and the CLI harness."""

import pathlib

import numpy as np
import pytest

from repro.analysis.complexity import fit_exponent, fit_exponent_with_log
from repro.analysis.tables import format_value, render_table
from repro.cli import main


class TestComplexity:
    def test_exact_power_law(self):
        xs = np.array([10, 100, 1000])
        fit = fit_exponent(xs, 3.0 * xs ** 1.5)
        assert np.isclose(fit.exponent, 1.5)
        assert fit.r_squared > 0.999
        assert np.allclose(fit.predict(xs), 3.0 * xs ** 1.5)

    def test_log_factor_removal(self):
        xs = np.array([16, 64, 256, 1024, 4096], dtype=float)
        ys = 2.0 * xs ** 1.0 * np.log(xs)
        raw = fit_exponent(xs, ys)
        clean = fit_exponent_with_log(xs, ys)
        assert abs(clean.exponent - 1.0) < abs(raw.exponent - 1.0)
        assert np.isclose(clean.exponent, 1.0, atol=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([10], [1.0])


class TestTables:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.14159) == "3.142"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(0.0) == "0"

    def test_render_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "### T"
        assert all(line.startswith("|") for line in lines[1:])
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # aligned


class TestCLI:
    def test_fig1(self, capsys):
        assert main(["fig1", "--side", "5", "--leaf-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "Separator decomposition tree" in out
        assert "oracle:" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--side", "7"]) == 0
        out = capsys.readouterr().out
        assert "Right shortcuts" in out
        assert "True" in out

    def test_stats_grid(self, capsys):
        assert main(["stats", "--family", "grid", "--n", "64", "--sources", "2"]) == 0
        out = capsys.readouterr().out
        assert "decomposition:" in out and "diameter_bound" in out

    @pytest.mark.parametrize("cmd", ["stats", "query"])
    def test_retired_method_flag_is_rejected(self, cmd, capsys):
        with pytest.raises(SystemExit) as ei:
            main([cmd, "--n", "49", "--method", "doubling"])
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_table1(self, capsys):
        assert main(["table1", "--sides", "6", "8", "10"]) == 0
        out = capsys.readouterr().out
        assert "preprocessing work exponent" in out


class TestReportAggregation:
    def test_aggregate_orders_and_includes(self, tmp_path):
        from repro.analysis.report import aggregate_results

        (tmp_path / "T1-pre-grid2d.md").write_text("grid2d table")
        (tmp_path / "Z-custom.md").write_text("custom finding")
        text = aggregate_results(tmp_path)
        assert text.index("T1-pre-grid2d") < text.index("Z-custom")
        assert "custom finding" in text
        assert "Missing experiments" in text

    def test_missing_dir_raises(self, tmp_path):
        from repro.analysis.report import aggregate_results

        with pytest.raises(FileNotFoundError) as err:
            aggregate_results(tmp_path / "nope")
        # The hint names the command that runs every bench: the
        # `--benchmark-only` form needs a plugin the suite no longer uses
        # and skips every bench test without its fixture.
        assert "run `pytest benchmarks/` first" in str(err.value)
        assert "--benchmark-only" not in str(err.value)

    def test_committed_results_doc_is_the_aggregate(self):
        """``RESULTS.md`` is exactly what ``repro-spsp report --output
        RESULTS.md`` writes from ``benchmarks/results``, so no recorded
        result is missing from it and none it shows is stale."""
        from repro.analysis.report import aggregate_results

        root = pathlib.Path(__file__).resolve().parent.parent
        want = aggregate_results(root / "benchmarks" / "results")
        assert (root / "RESULTS.md").read_text() == want, (
            "RESULTS.md is out of date; regenerate it with "
            "`repro-spsp report --output RESULTS.md`"
        )

    def test_cli_report(self, tmp_path, capsys):
        (tmp_path / "A3-schedule.md").write_text("sched row")
        assert main(["report", "--results", str(tmp_path)]) == 0
        assert "sched row" in capsys.readouterr().out

    def test_cli_report_to_file(self, tmp_path):
        (tmp_path / "A3-schedule.md").write_text("sched row")
        out = tmp_path / "agg.md"
        assert main(["report", "--results", str(tmp_path), "--output", str(out)]) == 0
        assert "sched row" in out.read_text()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL]" not in out


class TestTable1Mu:
    def test_cli_mu_sweep(self, capsys):
        assert main(["table1", "--mu", "0.5", "--sizes", "150", "300"]) == 0
        out = capsys.readouterr().out
        assert "programmed μ = 0.5" in out
        assert "theory 1.50" in out


class TestQuery:
    def test_check_against_a_serial_pass(self, capsys):
        assert main(["query", "--n", "64", "--backend", "serial", "--check"]) == 0
        assert "bit-identical to a serial pass: True" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["query", "serve"])
    def test_retired_engine_flag_is_rejected(self, cmd, capsys):
        with pytest.raises(SystemExit) as ei:
            main([cmd, "--engine", "naive"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --engine naive" in capsys.readouterr().err
