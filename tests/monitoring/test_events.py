"""Tests for the structured run-event records."""

import json

import pytest

from repro.monitoring import (
    ALERT,
    CHECKPOINT_RESTORED,
    CHECKPOINT_SAVED,
    CLOUD_ROUND,
    EDGE_ROUND,
    EVAL,
    RUN_END,
    RUN_START,
    RunEvent,
)

pytestmark = pytest.mark.monitoring


class TestKinds:
    def test_kinds_are_distinct(self):
        kinds = [
            RUN_START, EVAL, EDGE_ROUND, CLOUD_ROUND, ALERT, RUN_END,
            CHECKPOINT_SAVED, CHECKPOINT_RESTORED,
        ]
        assert len(set(kinds)) == len(kinds)


class TestRoundtrip:
    def test_dict_roundtrip(self):
        event = RunEvent(
            kind=EVAL,
            seq=7,
            wall_time=1.25,
            iteration=40,
            tier="cloud",
            sim_time=98.5,
            data={"accuracy": 0.9, "test_loss": 0.4},
        )
        restored = RunEvent.from_dict(event.to_dict())
        assert restored == event

    def test_json_roundtrip(self):
        event = RunEvent(kind=EDGE_ROUND, seq=3, iteration=10,
                         tier="edge", data={"gammas": {"0": 0.5}})
        restored = RunEvent.from_json(event.to_json())
        assert restored == event

    def test_to_dict_omits_empty_optionals(self):
        payload = RunEvent(kind=RUN_START, seq=0).to_dict()
        assert "tier" not in payload
        assert "sim_time" not in payload
        assert "data" not in payload

    def test_json_is_single_compact_line(self):
        line = RunEvent(kind=EVAL, seq=1, data={"accuracy": 0.5}).to_json()
        assert "\n" not in line
        assert " " not in line
        json.loads(line)  # must parse

    def test_from_dict_defaults(self):
        event = RunEvent.from_dict({"kind": RUN_END})
        assert event.seq == 0
        assert event.iteration == 0
        assert event.tier == ""
        assert event.sim_time is None
        assert event.data == {}
