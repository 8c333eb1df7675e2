"""Every module imports cleanly, whichever package is imported first."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

WALK = """
import importlib, pkgutil
import {first}
import repro

def fail(name):
    raise ImportError(name)

for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    importlib.import_module(info.name)
"""


@pytest.mark.parametrize(
    "first", ["repro.engine", "repro.reshaping", "repro.faults", "repro.infra"]
)
def test_fresh_import_walk_raises_no_deprecation_warning(first):
    """Import ``first`` in a new interpreter, then every ``repro`` module,
    with DeprecationWarning promoted to an error."""
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            "-c",
            WALK.format(first=first),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
