import importlib

import pytest

MODULES = ["recres", "recres.field", "recres.poly", "recres.resultant", "recres.recurrence", "recres.closedform"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
