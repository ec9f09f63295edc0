"""Cold start: importing and running repro does not load scipy.

Only one helper uses scipy, and it imports ``scipy.integrate`` when
called: :func:`repro.theory.adaptation.moments_for_distribution`.  The
guard below runs a fresh interpreter, so a module imported by an
earlier test in this process cannot hide a top-level import; the
in-process tests pin what the helper still returns.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.theory.adaptation import (
    adaptive_gamma_moments,
    moments_for_distribution,
)

SRC = Path(__file__).resolve().parent.parent / "src"

GUARDED = ("scipy",)

# Imports the public surface, then trains a small CNN HierAdMo federation
# with a checkpoint manager, restores it from its newest checkpoint, and
# runs an AsyncHierAdMo federation under a JSONL monitor.  Prints the
# guarded modules left in ``sys.modules``.
SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import tempfile
    from pathlib import Path

    import repro
    import repro.checkpoint
    import repro.cli
    import repro.experiments.builders
    import repro.monitoring
    import repro.telemetry
    from repro import ExperimentConfig
    from repro.checkpoint import CheckpointManager, restore
    from repro.experiments.builders import build_algorithm, build_federation
    from repro.monitoring import JSONLStreamSink, monitoring

    def build(name, **fields):
        config = ExperimentConfig(
            num_samples=240, num_edges=2, workers_per_edge=2, batch_size=8,
            tau=2, pi=2, eta=0.05, total_iterations=6, seed=3, **fields
        )
        return config, build_algorithm(name, build_federation(config), config)

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config, algorithm = build("HierAdMo", dataset="mnist", model="cnn")
        manager = CheckpointManager(work / "ckpt", every=4, config=config)
        algorithm.run(6, eval_every=3, checkpoints=manager)
        resumed, _ = restore(work / "ckpt")
        resumed.run(6, eval_every=3)

        config, algorithm = build(
            "AsyncHierAdMo", dataset="cifar10", model="logistic"
        )
        with monitoring(sinks=[JSONLStreamSink(work / "events.jsonl")]):
            algorithm.run(6, eval_every=3)

    print(json.dumps(sorted(
        name for name in sys.modules if name.startswith(%r)
    )))
    """
    % (GUARDED,)
)


def test_training_paths_do_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [], f"loaded without being called: {loaded}"


class TestQuadratureMoments:
    """Today's quadrature values, and the closed forms they approximate."""

    def test_uniform_density_at_default_cap(self):
        mean, variance = moments_for_distribution(lambda c: 0.5)
        assert mean == pytest.approx(0.24997499994048153, rel=1e-9)
        assert variance == pytest.approx(0.10412949940481431, rel=1e-9)
        closed_mean, closed_variance = adaptive_gamma_moments()
        assert mean == pytest.approx(closed_mean, rel=1e-9)
        assert variance == pytest.approx(closed_variance, rel=1e-9)

    def test_triangular_density(self):
        mean, variance = moments_for_distribution(lambda c: 1.0 - abs(c))
        assert mean == pytest.approx(0.16666649082767773, rel=1e-9)
        assert variance == pytest.approx(0.055555283343310564, rel=1e-9)
        # E = ∫0^cap c(1-c) dc + cap(1-cap)²/2 for the density 1 - |c|;
        # the kinks at 0 and at the cap limit the quadrature to ~1e-7.
        cap = 0.99
        expected = cap**2 / 2 - cap**3 / 3 + cap * (1 - cap) ** 2 / 2
        assert mean == pytest.approx(expected, rel=1e-6)
