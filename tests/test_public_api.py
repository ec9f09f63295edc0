"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro
from tests.test_tools import load_gen_api_doc


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_symbols_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module", [*load_gen_api_doc().MODULES, "repro.cli"]
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_registry_matches_exports(self):
        from repro import ALGORITHM_REGISTRY, THREE_TIER_ALGORITHMS, TWO_TIER_ALGORITHMS

        assert set(THREE_TIER_ALGORITHMS) | set(TWO_TIER_ALGORITHMS) == set(
            ALGORITHM_REGISTRY
        )
        assert set(ALGORITHM_REGISTRY) == {
            # three-tier
            "HierAdMo", "HierAdMo-R", "HierFAVG", "CFL",
            # two-tier
            "FastSlowMo", "FedADC", "FedMom", "SlowMo", "FedNAG", "Mime",
            "FedAvg",
        }

    def test_registry_names_match_class_names(self):
        from repro import ALGORITHM_REGISTRY

        for name, cls in ALGORITHM_REGISTRY.items():
            assert cls.name == name

    def test_docstrings_everywhere(self):
        """Every public module and class carries a docstring."""
        for module_name in (
            "repro", "repro.core", "repro.algorithms", "repro.theory",
            "repro.simulation", "repro.data", "repro.nn",
        ):
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if isinstance(obj, type):
                    assert obj.__doc__, f"{module_name}.{name}"
