"""Pinned end-to-end plans for DC2 and DC3 at 480 instances.

Synthesis → workload-aware placement → RPP remap → test-week evaluation,
compared exactly against fingerprints captured from the object-walk
implementation the array-backed plan path replaced: the full assignment
(instance → leaf, in assignment order), the RPP sum-of-peaks reduction and
the extra-server fraction.
"""

import hashlib
import json

import pytest

from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.core.remapping import RemapConfig
from repro.datasets import build_datacenter, dc2_spec, dc3_spec
from repro.infra.topology import Level

PINNED = {
    "DC2": (
        dc2_spec,
        "fe9f953c234dd408154f90964719891b8e4978a6e04df6ad65767a8b75b54026",
        0.08491705709980224,
        0.058333333333333334,
    ),
    "DC3": (
        dc3_spec,
        "9d31ddb320e6e492cf1ed66fa61d94c1ebb0c1b032202b51f0d1daca27331d6f",
        0.15279482616903123,
        0.10208333333333333,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plan_matches_pinned_fingerprint(name):
    factory, mapping_sha256, rpp_reduction, extra_fraction = PINNED[name]
    dc = build_datacenter(factory(n_instances=480), weeks=3, step_minutes=10)
    config = SmoothOperatorConfig(
        placement=PlacementConfig(seed=0),
        remap=RemapConfig(level=Level.RPP, max_swaps=30),
    )
    outcome = SmoothOperator(config).optimize(dc.records, dc.topology)
    report = SmoothOperator.evaluate(dc.records, dc.baseline, outcome.assignment)

    mapping = list(outcome.assignment.as_mapping().items())
    digest = hashlib.sha256(json.dumps(mapping).encode()).hexdigest()
    assert digest == mapping_sha256
    assert report.peak_reduction[Level.RPP] == rpp_reduction
    assert report.extra_server_fraction == extra_fraction
