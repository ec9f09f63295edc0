"""The examples load against the current public API, and one runs end to end.

Every example guards its run with ``if __name__ == "__main__"``, so
loading it under another name executes only its imports and
definitions: an example that names a removed public name fails here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace.get("main")), f"{path.name} has no main()"


def test_centralized_vs_federated_prints_what_it_reads(capsys):
    """The example's "Reading" lines state the order its curves end in."""
    path = EXAMPLES_DIR / "centralized_vs_federated.py"
    runpy.run_path(str(path), run_name="example")["main"]()
    # A curve row reads "<name>  <sparkline>  <final accuracy>".
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    final = {row[0]: float(row[2]) for row in rows if len(row) == 3}
    assert set(final) == {"centralized", "HierAdMo", "HierFAVG", "FedAvg"}
    assert final["HierAdMo"] > final["centralized"]
    assert final["centralized"] > max(final["HierFAVG"], final["FedAvg"])
