import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["recres", "recres.field", "recres.poly", "recres.resultant", "recres.recurrence", "recres.closedform"]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_cli_imports_only_the_standard_library():
    # the runtime is stdlib-only: a fresh interpreter that imports recres.cli
    # loads no module outside sys.stdlib_module_names but recres itself
    code = "import sys; before = set(sys.modules); import recres.cli; print(*sorted(set(sys.modules) - before))"
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        check=True,
    )
    loaded = result.stdout.split()
    assert "recres.cli" in loaded
    foreign = {name.partition(".")[0] for name in loaded} - set(sys.stdlib_module_names) - {"recres"}
    assert not foreign, sorted(foreign)
