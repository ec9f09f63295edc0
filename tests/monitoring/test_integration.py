"""End-to-end monitoring: instrumented runs, bit-exactness, aborts.

The contract under test: monitoring only ever *reads* algorithm state,
so a monitored run and an unmonitored run of the same seeded federation
produce bit-identical histories; health monitors see the real event
stream; an aborting monitor stops the run cleanly on both drivers.
"""

import pytest

from repro.algorithms import AsyncHierAdMo, HierFAVG
from repro.core import HierAdMo
from repro.faults import FaultPlan
from repro.metrics import history_from_dict, history_to_dict
from repro.monitoring import (
    PlateauMonitor,
    RingBufferSink,
    default_monitors,
    monitoring,
)

pytestmark = pytest.mark.monitoring

RUN_KW = dict(total_iterations=12, eval_every=4)
ALGO_KW = dict(eta=0.02, gamma=0.4, tau=2, pi=3)


def run_lockstep(federation_factory, *, monitored=False, monitors=()):
    algorithm = HierAdMo(federation_factory(), **ALGO_KW)
    if not monitored:
        return algorithm.run(**RUN_KW), None
    sink = RingBufferSink()
    with monitoring(sinks=[sink], monitors=list(monitors)):
        history = algorithm.run(**RUN_KW)
    return history, sink


def run_async(federation_factory, *, monitored=False, monitors=()):
    algorithm = AsyncHierAdMo(federation_factory(), **ALGO_KW)
    if not monitored:
        return algorithm.run(**RUN_KW), None
    sink = RingBufferSink()
    with monitoring(sinks=[sink], monitors=list(monitors)):
        history = algorithm.run(**RUN_KW)
    return history, sink


class TestBitExactness:
    """A zero-monitor run and a monitored run are bit-identical."""

    def test_lockstep(self, federation_factory):
        plain, _ = run_lockstep(federation_factory)
        monitored, _ = run_lockstep(
            federation_factory, monitored=True, monitors=default_monitors()
        )
        assert plain.test_accuracy == monitored.test_accuracy
        assert plain.test_loss == monitored.test_loss
        assert plain.train_loss[1:] == monitored.train_loss[1:]
        assert plain.gamma_trace == monitored.gamma_trace

    def test_async(self, federation_factory):
        plain, _ = run_async(federation_factory)
        monitored, _ = run_async(
            federation_factory, monitored=True, monitors=default_monitors()
        )
        assert plain.test_accuracy == monitored.test_accuracy
        assert plain.eval_times == monitored.eval_times


class TestEventStream:
    def test_lockstep_stream_shape(self, federation_factory):
        _, sink = run_lockstep(federation_factory, monitored=True)
        kinds = [e.kind for e in sink.snapshot()]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        # 12 iterations / tau=2 edge rounds; / (tau*pi)=6 cloud rounds.
        assert kinds.count("edge_round") == 6
        assert kinds.count("cloud_round") == 2
        assert kinds.count("eval") == 4  # t = 0, 4, 8, 12

    def test_lockstep_gammas_on_stream(self, federation_factory):
        _, sink = run_lockstep(federation_factory, monitored=True)
        edge_rounds = [e for e in sink.snapshot() if e.kind == "edge_round"]
        assert all("gammas" in e.data for e in edge_rounds)
        gammas = edge_rounds[0].data["gammas"]
        assert set(gammas) == {"0", "1"}

    def test_eval_carries_ledger_bytes(self, federation_factory):
        _, sink = run_lockstep(federation_factory, monitored=True)
        final_eval = [e for e in sink.snapshot() if e.kind == "eval"][-1]
        assert final_eval.data["total_bytes"] > 0
        assert final_eval.data["worker_edge_bytes"] > 0

    def test_async_stream_has_sim_times(self, federation_factory):
        _, sink = run_async(federation_factory, monitored=True)
        events = sink.snapshot()
        rounds = [e for e in events if e.kind == "edge_round"]
        assert rounds, "async run emitted no edge_round events"
        assert all(e.sim_time is not None for e in rounds)
        assert all("staleness" in e.data for e in rounds)
        evals = [e for e in events if e.kind == "eval"]
        # Post-round evals ride the simulated clock (t=0 eval has none).
        assert all(e.sim_time is not None for e in evals[1:])

    def test_run_end_reports_status(self, federation_factory):
        history, sink = run_lockstep(federation_factory, monitored=True)
        end = sink.snapshot()[-1]
        assert end.data["status"] == "finished"
        assert end.data["final_accuracy"] == history.final_accuracy


class TestAbort:
    """An aborting monitor stops the run cleanly on both drivers."""

    @pytest.fixture()
    def stall_monitors(self):
        # A vanishing η keeps the model frozen so accuracy can never improve and
        # the plateau monitor trips deterministically.
        return [PlateauMonitor(abort=True)]

    def test_lockstep_abort(self, federation_factory, stall_monitors):
        algorithm = HierAdMo(federation_factory(), **{**ALGO_KW, "eta": 1e-9})
        with monitoring(monitors=stall_monitors):
            history = algorithm.run(total_iterations=40, eval_every=2)
        assert history.aborted_by == "plateau"
        assert history.iterations[-1] < 40
        assert len(history.alerts) == 1
        assert history.alerts[0]["monitor"] == "plateau"

    def test_async_abort(self, federation_factory, stall_monitors):
        algorithm = AsyncHierAdMo(
            federation_factory(), **{**ALGO_KW, "eta": 1e-9}
        )
        with monitoring(monitors=stall_monitors):
            history = algorithm.run(total_iterations=40, eval_every=2)
        assert history.aborted_by == "plateau"
        assert history.iterations[-1] < 40
        # The time axis stays aligned through the abort path.
        assert len(history.eval_times) == len(history.iterations)

    def test_aborted_history_roundtrips(self, federation_factory,
                                        stall_monitors):
        algorithm = HierAdMo(federation_factory(), **{**ALGO_KW, "eta": 1e-9})
        with monitoring(monitors=stall_monitors):
            history = algorithm.run(total_iterations=40, eval_every=2)
        restored = history_from_dict(history_to_dict(history))
        assert restored.aborted_by == "plateau"
        assert restored.alerts == history.alerts


class TestOtherAlgorithms:
    def test_hierfavg_emits_rounds(self, federation_factory):
        algorithm = HierFAVG(federation_factory(), eta=0.05, tau=2, pi=3)
        sink = RingBufferSink()
        with monitoring(sinks=[sink]):
            algorithm.run(**RUN_KW)
        kinds = [e.kind for e in sink.snapshot()]
        assert kinds.count("edge_round") == 6
        assert kinds.count("cloud_round") == 2

    @pytest.mark.parametrize(
        "cls", [HierAdMo, HierFAVG], ids=lambda cls: cls.name
    )
    def test_edge_round_counts_edges_that_held_one(
        self, federation_factory, cls
    ):
        """A dark edge holds no round, so ``edges`` leaves it out."""
        algorithm = cls(federation_factory(), eta=0.05, tau=2, pi=2)
        # Edge 0 is dark in intervals 1 and 2: the rounds at t=2 and 4.
        algorithm.attach_faults(FaultPlan(scripted_edge_down=((0, 1, 2),)))
        sink = RingBufferSink()
        with monitoring(sinks=[sink]):
            algorithm.run(8, eval_every=8)
        edges = {
            e.iteration: e.data["edges"]
            for e in sink.snapshot()
            if e.kind == "edge_round"
        }
        assert edges == {2: 1, 4: 1, 6: 2, 8: 2}

    def test_two_tier_emits_cloud_rounds(self, federation_factory):
        from repro.algorithms import FedAvg

        algorithm = FedAvg(federation_factory(), eta=0.05, tau=2)
        sink = RingBufferSink()
        with monitoring(sinks=[sink]):
            algorithm.run(**RUN_KW)
        cloud = [e for e in sink.snapshot() if e.kind == "cloud_round"]
        assert len(cloud) == 6  # every tau=2 iterations
        assert all(e.data["participants"] == 4 for e in cloud)


class TestStreamIsTheRecord:
    """The run's numbers read off its event stream are the history's."""

    def test_final_eval_and_rounds_match_history(self, federation_factory):
        history, sink = run_lockstep(federation_factory, monitored=True)
        events = sink.snapshot()
        last_eval = [e for e in events if e.kind == "eval"][-1]
        assert last_eval.data["accuracy"] == history.final_accuracy
        assert last_eval.data["total_bytes"] == history.comm.total_bytes
        kinds = [e.kind for e in events]
        assert kinds.count("edge_round") == history.comm.worker_edge_rounds
        assert kinds.count("edge_round") == 6
        assert kinds.count("cloud_round") == history.comm.edge_cloud_rounds
        gammas = [
            {int(edge): gamma for edge, gamma in e.data["gammas"].items()}
            for e in events
            if e.kind == "edge_round"
        ]
        assert gammas == history.gamma_trace
