"""Regenerate ``tests/engine/golden.json`` — the parity fingerprints.

The reshaping goldens are the four Sec. 4 modes run through
``Engine.run`` (``conftest.reshaping_results``); the chaos goldens are the
ten ``run_chaos_suite`` scenarios.  The parity suite proves every later
change reproduces them bit-for-bit.  Re-run this script only when a
deliberate behaviour change is being made, and say so in the commit
message:

    PYTHONPATH=src python tests/engine/_golden_gen.py
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parents[1]))  # the ``tests`` package

import conftest  # noqa: E402  (the shared builders)


def reshaping_goldens():
    return {
        mode: conftest.scenario_fingerprint(result)
        for mode, result in conftest.reshaping_results().items()
    }


def chaos_goldens():
    from repro.faults import run_chaos_suite

    outcomes = run_chaos_suite(dc_name="DC1", **conftest.SMALL)
    return {
        outcome.scenario.name: conftest.chaos_fingerprint(outcome)
        for outcome in outcomes
    }


def main():
    document = {
        "scale": conftest.SMALL,
        "reshaping": reshaping_goldens(),
        "chaos": chaos_goldens(),
    }
    path = HERE / "golden.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
