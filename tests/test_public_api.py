"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro
from tests.test_reached import repro_modules


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_symbols_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", repro_modules())
    def test_submodule_all_resolves(self, module):
        """Every module's ``__all__``, not only the packages' re-exports,
        names attributes the module has: a name deleted from a submodule
        must leave its ``__all__`` too."""
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_registry_matches_exports(self):
        from repro import ALGORITHM_REGISTRY, THREE_TIER_ALGORITHMS
        from repro.algorithms import TwoTierAlgorithm

        assert set(THREE_TIER_ALGORITHMS) == {
            name
            for name, cls in ALGORITHM_REGISTRY.items()
            if not issubclass(cls, TwoTierAlgorithm)
        }
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

    @pytest.mark.parametrize("module_name", repro_modules())
    def test_docstrings_everywhere(self, module_name):
        """Every module, and every public class of it, carries a
        docstring."""
        module = importlib.import_module(module_name)
        assert module.__doc__, module_name
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name}"
