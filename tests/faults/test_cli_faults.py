"""The ``repro faults`` subcommand."""

import re

import pytest

from repro.cli import main

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
        """The zero plan's inactive injector tallies nothing, so the
        digest says so rather than printing a 0/0 round tally."""
        code = main(["faults", "--algorithm", "FedAvg", *FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults: none planned (zero plan), no rounds tallied" in out
        assert ROUNDS.search(out) is None
        assert "0/0" not in out

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["faults", "--policy", "resurrect", *FAST])

