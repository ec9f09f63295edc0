"""The ``repro faults`` subcommand and the resilience sweep."""

import re

import pytest

from repro.cli import main
from repro.experiments import (
    ExperimentConfig,
    format_resilience,
    run_resilience_sweep,
    severity_plan,
)

pytestmark = pytest.mark.faults

FAST = [
    "--samples", "400", "--iterations", "12",
    "--tau", "3", "--pi", "2",
]

ROUNDS = re.compile(
    r"rounds: (\d+)/(\d+) survived "
    r"\((\d+) pristine, (\d+) degraded, (\d+) skipped\)"
)


def round_tallies(out):
    survived, total, pristine, degraded, skipped = map(
        int, ROUNDS.search(out).groups()
    )
    assert survived == pristine + degraded
    assert total == survived + skipped
    return survived, total, skipped


class TestFaultsCommand:
    def test_summarizes_injected_vs_survived(self, capsys):
        code = main([
            "faults", "--algorithm", "HierAdMo",
            "--worker-dropout", "0.2", "--msg-dup", "0.2",
            "--policy", "renormalize", *FAST,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final accuracy" in out
        survived, total, _ = round_tallies(out)
        assert total > 0 and survived <= total
        assert "injected events:\n" in out
        assert re.search(r"^fault\.worker_drop +[1-9]", out, re.M)
        assert re.search(r"^fault\.msg_dup +[1-9]", out, re.M)

    def test_zero_plan_reports_no_events(self, capsys):
        code = main(["faults", "--algorithm", "FedAvg", *FAST])
        out = capsys.readouterr().out
        assert code == 0
        survived, total, skipped = round_tallies(out)
        assert survived == total and skipped == 0
        assert "injected events: none realized" in out

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["faults", "--policy", "resurrect", *FAST])


class TestResilienceSweep:
    def test_severity_plan_scales(self):
        assert severity_plan(0.0).is_zero
        plan = severity_plan(1.0)
        assert plan.worker_dropout == pytest.approx(0.3)
        assert plan.msg_loss == pytest.approx(0.2)
        with pytest.raises(ValueError):
            severity_plan(1.5)

    def test_sweep_shape_and_digests(self):
        config = ExperimentConfig(
            num_samples=400, total_iterations=12, tau=3, pi=2,
            eval_every=12,
        )
        results = run_resilience_sweep(
            (0.0, 0.75),
            algorithms=("HierAdMo", "FedAvg"),
            base_config=config,
        )
        assert set(results) == {0.0, 0.75}
        for severity, row in results.items():
            for name, cell in row.items():
                assert cell.algorithm == name
                assert cell.severity == severity
                assert 0.0 <= cell.final_accuracy <= 1.0
        # Severity 0 is the zero plan: nothing degraded or skipped.
        for cell in results[0.0].values():
            assert cell.degraded_rounds == 0
            assert cell.skipped_rounds == 0
        # Severity 0.75 realizes faults somewhere in the grid.
        assert any(
            cell.degraded_rounds + cell.skipped_rounds > 0
            for cell in results[0.75].values()
        )
        table = format_resilience(results)
        assert "HierAdMo" in table and "sev=0.75" in table
