"""Communication ledger: closed-form bytes and payload registry
agreement."""

from __future__ import annotations

import pytest

from repro.algorithms import ALGORITHM_REGISTRY, FedProx, SampledFedAvg
from repro.algorithms.compressed import QuantizedHierFAVG
from repro.core.base import FLAlgorithm
from repro.telemetry import BYTES_PER_PARAM, CommLedger

pytestmark = pytest.mark.telemetry


class TestClosedFormBytes:
    def test_bytes_follow_events_exactly(self):
        ledger = CommLedger()
        ledger.configure(dim=100, payload_multiplier=2.0)
        ledger.record_worker_edge(8)
        ledger.record_worker_edge(4, rounds=0)
        ledger.record_edge_cloud(6)
        assert ledger.vector_bytes == 100 * BYTES_PER_PARAM * 2.0
        assert ledger.worker_edge_events == 12
        assert ledger.worker_edge_rounds == 1
        assert ledger.edge_cloud_events == 6
        assert ledger.edge_cloud_rounds == 1
        assert ledger.worker_edge_bytes == 12 * 100 * 8 * 2.0
        assert ledger.edge_cloud_bytes == 6 * 100 * 8 * 2.0
        assert ledger.total_bytes == (
            ledger.worker_edge_bytes + ledger.edge_cloud_bytes
        )

    def test_configure_validates(self):
        ledger = CommLedger()
        with pytest.raises(ValueError):
            ledger.configure(dim=0, payload_multiplier=1.0)
        with pytest.raises(ValueError):
            ledger.configure(dim=10, payload_multiplier=0.0)

    def test_dict_roundtrip_recomputes_bytes(self):
        ledger = CommLedger()
        ledger.configure(dim=50, payload_multiplier=2.0)
        ledger.record_worker_edge(10)
        payload = ledger.to_dict()
        # A reader tampering with the stored bytes cannot poison the
        # restored ledger: bytes are recomputed from the events.
        payload["worker_edge_bytes"] = -1
        restored = CommLedger.from_dict(payload)
        assert restored.worker_edge_bytes == ledger.worker_edge_bytes
        assert restored.to_dict() == ledger.to_dict()


class TestPayloadRegistry:
    def test_every_algorithm_declares_a_multiplier(self):
        classes = dict(ALGORITHM_REGISTRY)
        classes["QuantizedHierFAVG"] = QuantizedHierFAVG
        classes["SampledFedAvg"] = SampledFedAvg
        classes["FedProx"] = FedProx
        for name, cls in classes.items():
            assert issubclass(cls, FLAlgorithm)
            multiplier = cls.payload_multiplier
            assert multiplier in (1.0, 2.0), (name, multiplier)

    def test_momentum_shippers_pay_double(self):
        doubles = {
            name
            for name, cls in ALGORITHM_REGISTRY.items()
            if cls.payload_multiplier == 2.0
        }
        assert doubles == {
            "HierAdMo", "HierAdMo-R", "FedNAG", "FastSlowMo",
            "FedADC", "Mime",
        }
