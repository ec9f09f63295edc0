"""Tests for the terminal dashboard renderer."""

import math

import pytest

from repro.monitoring import (
    ALERT,
    CLOUD_ROUND,
    EDGE_ROUND,
    EVAL,
    RUN_END,
    RUN_START,
    RunEvent,
    render_dashboard,
)
from repro.monitoring.dashboard import MIN_WIDTH

pytestmark = pytest.mark.monitoring


def gamma_stream(rounds):
    """``rounds`` edge rounds: edge 0's γ rises, edge 1's falls."""
    events = [RunEvent(kind=RUN_START, data={"algorithm": "X"})]
    for r in range(rounds):
        events.append(RunEvent(
            kind=EDGE_ROUND, seq=r + 1, iteration=r, tier="edge",
            data={"gammas": {"0": 0.1 + 0.05 * r, "1": 0.9 - 0.05 * r}},
        ))
    return events


def make_stream(*, with_end=True, with_alert=False):
    events = [
        RunEvent(kind=RUN_START, seq=0,
                 data={"algorithm": "HierAdMo", "total_iterations": 40}),
    ]
    seq = 1
    for i, (t, acc) in enumerate(
        [(0, 0.1), (10, 0.4), (20, 0.7), (30, 0.85), (40, 0.9)]
    ):
        events.append(RunEvent(
            kind=EVAL, seq=seq, wall_time=0.1 * (i + 1), iteration=t,
            data={
                "accuracy": acc,
                "test_loss": 1.0 - acc,
                "train_loss": math.nan if t == 0 else 1.0 - acc,
                "worker_edge_bytes": 1000.0 * (i + 1),
                "edge_cloud_bytes": 500.0 * (i + 1),
                "total_bytes": 1500.0 * (i + 1),
            },
        ))
        seq += 1
    for r in range(4):
        events.append(RunEvent(
            kind=EDGE_ROUND, seq=seq, iteration=10 * r, tier="edge",
            data={"gammas": {"0": 0.5 - 0.05 * r, "1": 0.25},
                  "group": r % 2, "forced": r == 3,
                  "staleness": [1] if r == 2 else [],
                  "members": 2, "quorum_wait": 0.5 + r},
        ))
        seq += 1
    events.append(RunEvent(
        kind=CLOUD_ROUND, seq=seq, iteration=20, tier="cloud",
        data={"round": 1, "edges": 2, "stale_uploads": 1},
    ))
    seq += 1
    if with_alert:
        events.append(RunEvent(
            kind=ALERT, seq=seq, iteration=30,
            data={"monitor": "plateau", "severity": "warning",
                  "message": "accuracy plateaued at 0.9"},
        ))
        seq += 1
    if with_end:
        events.append(RunEvent(
            kind=RUN_END, seq=seq, iteration=40,
            data={"status": "finished", "final_accuracy": 0.9},
        ))
    return events


class TestRender:
    def test_empty_stream(self):
        assert render_dashboard([]) == "(no events yet)\n"

    def test_header_finished(self):
        text = render_dashboard(make_stream())
        assert "HierAdMo · finished · iter 40/40" in text

    def test_header_running(self):
        text = render_dashboard(make_stream(with_end=False))
        assert "· running ·" in text

    def test_header_aborted(self):
        events = make_stream(with_end=False)
        events.append(RunEvent(
            kind=RUN_END, iteration=20,
            data={"status": "aborted", "aborted_by": "divergence"},
        ))
        text = render_dashboard(events)
        assert "aborted by divergence" in text

    def test_accuracy_sparkline_and_stats(self):
        text = render_dashboard(make_stream())
        assert "accuracy" in text
        # Rising series: the sparkline ends on the tallest block.
        spark_line = next(
            line for line in text.splitlines() if line.startswith("accuracy")
        )
        assert spark_line.rstrip().endswith("█")
        assert "latest 0.9000" in text
        assert "best 0.9000" in text

    def test_gamma_panel(self):
        text = render_dashboard(make_stream())
        assert "gamma per edge" in text
        assert "edge   0" in text
        assert "0.3500" in text  # last γ of edge 0

    def test_byte_panel_with_rates(self):
        text = render_dashboard(make_stream())
        assert "worker→edge" in text
        assert "edge→cloud" in text
        assert "total" in text
        assert "/s)" in text  # rate over the last eval interval

    def test_rounds_panel(self):
        text = render_dashboard(make_stream())
        assert "rounds: edge 4  cloud 1  forced 1  stale uploads 1" in text
        assert "staleness folds  1r:1" in text
        assert "quorum wait" in text

    def test_alert_panel(self):
        text = render_dashboard(make_stream(with_alert=True))
        assert "alerts (1)" in text
        assert "[plateau] iter 30: accuracy plateaued" in text

    def test_no_alerts_line(self):
        assert "alerts: none" in render_dashboard(make_stream())

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_dashboard(make_stream(), width=8)

    def test_lines_fit_width(self):
        text = render_dashboard(make_stream(with_alert=True), width=48)
        for line in text.splitlines():
            if line.startswith(("!", " !")):
                assert len(line) <= 48

    def test_downsampled_long_series(self):
        events = [RunEvent(kind=RUN_START, data={"algorithm": "X"})]
        for i in range(500):
            events.append(RunEvent(
                kind=EVAL, seq=i + 1, iteration=i,
                data={"accuracy": i / 500.0, "test_loss": 1.0,
                      "train_loss": 1.0},
            ))
        text = render_dashboard(events, width=40)
        spark_line = next(
            line for line in text.splitlines() if line.startswith("accuracy")
        )
        assert len(spark_line) <= 40


class TestWidths:
    """Every width ``render_dashboard`` accepts renders every panel."""

    @pytest.mark.parametrize("rounds", [1, 2, 3, 12])
    @pytest.mark.parametrize(
        "width", [MIN_WIDTH, MIN_WIDTH + 1, MIN_WIDTH + 2, 40, 64]
    )
    def test_gamma_rows_at_boundary_widths(self, width, rounds):
        text = render_dashboard(gamma_stream(rounds), width=width)
        rows = [line for line in text.splitlines() if line.startswith("  edge")]
        assert len(rows) == 2
        sparks = [row.split()[2] for row in rows]
        for spark in sparks:
            assert len(spark) == min(rounds, width - 24)
        if rounds > 1:
            # Downsampling keeps both ends of each series.
            rising, falling = sparks
            assert (rising[0], rising[-1]) == ("▁", "█")
            assert (falling[0], falling[-1]) == ("█", "▁")

    @pytest.mark.parametrize("width", [16, 24, MIN_WIDTH - 1])
    def test_narrower_widths_refused(self, width):
        with pytest.raises(ValueError, match=f">= {MIN_WIDTH}"):
            render_dashboard(gamma_stream(3), width=width)

    def test_full_stream_at_minimum_width(self):
        text = render_dashboard(make_stream(with_alert=True), width=MIN_WIDTH)
        assert "gamma per edge" in text
        assert "alerts (1)" in text

    @pytest.mark.parametrize("width", [MIN_WIDTH, MIN_WIDTH + 1, 40, 64])
    @pytest.mark.parametrize(
        "events",
        [
            make_stream(with_alert=True),
            make_stream(with_end=False),
            make_stream(with_end=False, with_alert=True),
            gamma_stream(12),
        ],
        ids=["finished-alert", "running", "running-alert", "gamma-only"],
    )
    def test_every_line_fits_width(self, events, width):
        """The header, the latest/best, byte, rounds and γ rows are cut
        to the width like the alert lines, whichever panels render."""
        text = render_dashboard(events, width=width)
        assert max(len(line) for line in text.splitlines()) <= width


class TestDerivedLines:
    """The dashboard is the one derived view of these payloads."""

    def test_population_line_reads_the_last_round(self):
        events = make_stream(with_end=False)
        for seq, (cohort, materialized, carried) in enumerate(
            [(8, 8, 0), (8, 13, 5)], start=len(events)
        ):
            events.append(RunEvent(
                kind="population_round", seq=seq, iteration=10 * seq,
                data={"registered": 1_000_000, "cohort": cohort,
                      "materialized": materialized, "carried": carried},
            ))
        line = (
            "population: 1000000 registered  cohort 8  materialized 13"
            "  carried 5"
        )
        # Rows are cut to the width, so render wide enough for this one.
        text = render_dashboard(events, width=len(line))
        assert line in text.splitlines()

    def test_no_population_line_without_rounds(self):
        assert "population:" not in render_dashboard(make_stream())

    def test_peak_rss_line_reads_the_last_eval(self):
        events = make_stream(with_end=False)
        for event, rss in zip(
            (e for e in events if e.kind == EVAL),
            (10, 20, 30, 40, 48 * 1024 ** 2),
        ):
            event.data["peak_rss_bytes"] = rss
        lines = render_dashboard(events).splitlines()
        assert f"{'peak rss':<12} {'48.00 MiB':>12}" in lines

    def test_no_peak_rss_line_without_a_reading(self):
        assert "peak rss" not in render_dashboard(make_stream())
