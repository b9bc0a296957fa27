"""Tests for report export (CSV, compare, ASCII CDF) and trace files."""

import csv

import pytest

from repro.core.stats import DelaySample
from repro.simul.distributions import RandomSource
from repro.workloads.google_trace import (
    google_trace_arrivals,
    load_trace_csv,
    save_trace_csv,
    tpch_query_mix,
)


class TestCsvExport:
    def test_app_csv_round_trip(self, single_app_run, tmp_path):
        _bed, _app, report = single_app_run
        path = report.to_csv(tmp_path / "apps.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert float(rows[0]["total_delay"]) > 0
        assert rows[0]["app_id"].startswith("application_")

    def test_container_csv(self, single_app_run, tmp_path):
        _bed, _app, report = single_app_run
        path = report.containers_to_csv(tmp_path / "containers.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5  # AM + 4 executors
        types = {r["instance_type"] for r in rows}
        assert types == {"spm", "spe"}


class TestCompare:
    def test_self_comparison_is_unity(self, single_app_run):
        _bed, _app, report = single_app_run
        text = report.compare(report)
        assert "total_delay" in text
        # Every slowdown column shows 1.00.
        for line in text.splitlines()[1:]:
            assert "  1.00" in line

    def test_compare_shows_slowdown(self, single_app_run, opportunistic_run):
        _b1, _a1, r1 = single_app_run
        _b2, _a2, r2 = opportunistic_run
        assert "allocation_delay" in r1.compare(r2)


class TestAsciiCdf:
    def test_renders_axes_and_points(self):
        s = DelaySample(range(1, 101), name="demo")
        art = s.ascii_cdf(width=40, height=8)
        assert "demo CDF (n=100)" in art
        assert "*" in art
        assert "100%" in art and "(s)" in art

    def test_empty_sample(self):
        assert DelaySample([]).ascii_cdf() == "(empty sample)"

    def test_single_value(self):
        art = DelaySample([2.5]).ascii_cdf(width=10, height=4)
        assert "*" in art


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        rng = RandomSource(5)
        arrivals = google_trace_arrivals(20, 2.0, rng.child("a"))
        queries = tpch_query_mix(20, rng.child("q"))
        path = save_trace_csv(tmp_path / "trace.csv", arrivals, queries)
        loaded_arrivals, loaded_queries = load_trace_csv(path)
        assert loaded_queries == queries
        assert loaded_arrivals == pytest.approx(arrivals, abs=0.001)

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace_csv(tmp_path / "t.csv", [0.0, 1.0], [1])

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("arrival_s,query\n")
        with pytest.raises(ValueError, match="empty"):
            load_trace_csv(tmp_path / "t.csv")

    def test_unsorted_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("arrival_s,query\n5.0,1\n1.0,2\n")
        with pytest.raises(ValueError, match="sorted"):
            load_trace_csv(tmp_path / "t.csv")

    def test_scenario_replays_trace_file(self, tmp_path):
        from repro.workloads.scenarios import trace_recipe

        rng = RandomSource(6)
        arrivals = google_trace_arrivals(3, 3.0, rng.child("a"))
        queries = [1, 6, 6]
        path = save_trace_csv(tmp_path / "trace.csv", arrivals, queries)
        scenario = trace_recipe(trace_file=str(path), seed=9, params={"num_nodes": 5})
        result = scenario.run()
        assert len(result.report) == 3
        names = [app.name for app in result.testbed.applications]
        assert names[0].startswith("tpch-q1")
        assert names[1].startswith("tpch-q6")


class TestCliExtensions:
    @pytest.fixture(scope="class")
    def logdir(self, tmp_path_factory, single_app_run):
        bed, _app, _report = single_app_run
        path = tmp_path_factory.mktemp("cli-logs")
        bed.dump_logs(path)
        return path

    def test_cdf_mode(self, logdir, capsys):
        from repro.core.cli import main

        assert main([str(logdir), "--cdf", "total_delay"]) == 0
        assert "CDF" in capsys.readouterr().out

    def test_csv_mode(self, logdir, tmp_path, capsys):
        from repro.core.cli import main

        out = tmp_path / "a.csv"
        assert main([str(logdir), "--csv", str(out)]) == 0
        assert out.exists()

    def test_containers_csv_mode(self, logdir, tmp_path):
        from repro.core.cli import main

        out = tmp_path / "c.csv"
        assert main([str(logdir), "--containers-csv", str(out)]) == 0
        assert out.read_text().count("\n") == 6  # header + 5 containers

    def test_compare_mode(self, logdir, capsys):
        from repro.core.cli import main

        assert main([str(logdir), "--compare", str(logdir)]) == 0
        assert "total_delay" in capsys.readouterr().out

    def test_compare_missing_dir(self, logdir, tmp_path):
        from repro.core.cli import main

        assert main([str(logdir), "--compare", str(tmp_path / "nope")]) == 2
