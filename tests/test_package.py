"""The package binds no names of its own: each lives in its module, and
importing one module loads only the modules it uses."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import tsclab


def test_importing_layers_loads_only_its_dependencies():
    src = str(Path(tsclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, tsclab.layers; print(' '.join(sorted(m for m in sys.modules "
            "if m == 'tsclab' or m.startswith('tsclab.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["tsclab", "tsclab.errors", "tsclab.layers", "tsclab.tensor"]


def test_package_binds_no_function_or_class():
    bound = [name for name, value in vars(tsclab).items()
             if inspect.isfunction(value) or inspect.isclass(value)]
    assert bound == []
    assert tsclab.__version__ == "0.1.0"
