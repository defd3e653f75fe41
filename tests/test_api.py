import importlib

import pytest

SUBMODULES = ("airy", "cli", "critical", "eigen", "exact", "motion", "numeric",
              "output", "transforms")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"growthdiff.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
