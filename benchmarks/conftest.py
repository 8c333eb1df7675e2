"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures at full
experiment scale (1440 instances per datacenter, 10-minute sampling), writes
the rendered rows to ``benchmarks/results/<name>.txt``, and asserts the
paper's qualitative shape (who wins, orderings, rough factors).

Datacenters and placement studies are cached inside
:mod:`repro.analysis.experiments`, so the first benchmark pays the build
cost and the rest reuse it.

``tools/`` goes on the import path so a benchmark that asserts a gated
bound in-process reads it from ``bench_compare.GATES``, the one place the
bound is written.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))


@pytest.fixture(scope="session")
def emit_report():
    """Write a rendered experiment report to benchmarks/results/ and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _emit


@pytest.fixture(scope="session")
def full_scale():
    """Keyword arguments selecting the full experiment scale."""
    return dict(n_instances=1440, step_minutes=10)
