"""The block generator reproduces per-instance synthesis bit-for-bit.

:meth:`TraceSynthesizer.fleet` draws each service in fixed-size blocks of
instances.  ``_legacy_*`` below is a frozen copy of the one-instance-at-a-
time generator it replaced; every comparison is exact (``array_equal``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.traces import (
    InstancePersonality,
    InstanceRecord,
    ServiceInstance,
    Shape,
    TraceSynthesizer,
    db_profile,
    dev_profile,
    draw_personality,
    hadoop_profile,
    media_profile,
    training_trace_set,
    web_profile,
)
from repro.traces import test_trace_set as heldout_trace_set
from repro.traces.series import PowerTrace
from repro.traces.synthesis import BLOCK_ROWS


# ----------------------------------------------------------------------
# frozen per-instance reference
# ----------------------------------------------------------------------
def _legacy_ar1_noise(n_samples, std, rng, rho=0.9):
    if std == 0:
        return np.zeros(n_samples)
    length = min(n_samples, max(8, int(np.ceil(np.log(1e-3) / np.log(rho)))))
    kernel = rho ** np.arange(length)
    kernel /= np.sqrt((kernel * kernel).sum())
    white = rng.normal(0.0, std, size=n_samples + length - 1)
    return np.convolve(white, kernel, mode="valid")


def _legacy_personality(profile, rng):
    phase = float(rng.normal(0.0, profile.phase_jitter_hours))
    amplitude = float(np.clip(rng.normal(1.0, profile.amplitude_jitter), 0.2, 3.0))
    baseline = float(np.clip(rng.normal(1.0, profile.baseline_jitter), 0.2, 3.0))
    return InstancePersonality(phase, amplitude, baseline)


def _legacy_instance_trace(grid, weeks, profile, rng, personality=None):
    if personality is None:
        personality = _legacy_personality(profile, rng)
    hours = grid.hours_of_day() - personality.phase_offset_hours
    activity = profile.activity(np.mod(hours, 24.0))
    day_of_week = grid.days_of_week()
    weekend = (day_of_week >= 5).astype(np.float64)
    weekly = 1.0 - weekend * (1.0 - profile.weekend_factor)
    per_week = grid.samples_per_week
    week_scale = rng.normal(1.0, 0.03, size=weeks).clip(0.8, 1.2)
    week_factor = np.repeat(week_scale, per_week)[: grid.n_samples]
    noise = _legacy_ar1_noise(grid.n_samples, profile.noise_std, rng)
    utilisation = activity * weekly * week_factor * (1.0 + noise)
    utilisation = np.clip(utilisation, 0.0, 1.5)
    idle = profile.idle_watts * personality.baseline_scale
    swing = profile.swing_watts * personality.amplitude_scale
    values = idle + swing * utilisation
    return PowerTrace(grid, np.maximum(values, 0.0))


def _legacy_fleet(weeks, step_minutes, seed, composition, test_weeks):
    synthesizer = TraceSynthesizer(weeks=weeks, step_minutes=step_minutes, seed=seed)
    rng = np.random.default_rng(seed)
    records = []
    for profile, count in composition:
        for index in range(count):
            instance = ServiceInstance(
                instance_id=f"{profile.name}-{index:05d}",
                service=profile.name,
                kind=profile.kind,
            )
            raw = _legacy_instance_trace(synthesizer.grid, weeks, profile, rng)
            records.append(
                InstanceRecord.from_weeks(
                    instance, raw.split_weeks(), test_weeks=test_weeks
                )
            )
    return records


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def _noiseless():
    return replace(web_profile("quiet"), noise_std=0.0)


def _jitterless():
    return db_profile("uniform").with_heterogeneity(0.0)


#: One profile per Shape, plus a noiseless and a zero-jitter profile; the
#: counts straddle the block edge.
COMPOSITION = [
    (web_profile(), BLOCK_ROWS - 1),
    (db_profile(), BLOCK_ROWS),
    (hadoop_profile(), BLOCK_ROWS + 1),
    (media_profile(), 3),
    (dev_profile(), 2 * BLOCK_ROWS + 1),
    (_noiseless(), BLOCK_ROWS + 1),
    (_jitterless(), 5),
]


def _assert_same_records(new, old):
    assert [r.instance_id for r in new] == [r.instance_id for r in old]
    for a, b in zip(new, old):
        assert a.instance == b.instance
        assert a.training_trace.grid == b.training_trace.grid
        assert np.array_equal(a.training_trace.values, b.training_trace.values)
        if b.test_trace is None:
            assert a.test_trace is None
        else:
            assert a.test_trace.grid == b.test_trace.grid
            assert np.array_equal(a.test_trace.values, b.test_trace.values)


def test_composition_covers_every_shape():
    assert {profile.shape for profile, _ in COMPOSITION} == set(Shape.ALL)


@pytest.mark.parametrize(
    "weeks,test_weeks", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]
)
def test_fleet_matches_per_instance_loop(weeks, test_weeks):
    new = TraceSynthesizer(weeks=weeks, step_minutes=60, seed=11).fleet(
        COMPOSITION, test_weeks=test_weeks
    )
    old = _legacy_fleet(weeks, 60, 11, COMPOSITION, test_weeks)
    _assert_same_records(new, old)


def test_fleet_matches_at_ten_minute_step():
    composition = [(web_profile(), BLOCK_ROWS + 1), (_noiseless(), 2)]
    new = TraceSynthesizer(weeks=3, step_minutes=10, seed=5).fleet(composition)
    _assert_same_records(new, _legacy_fleet(3, 10, 5, composition, 1))


def test_service_instances_match_and_keep_prefix():
    synthesizer = TraceSynthesizer(weeks=2, step_minutes=60, seed=3)
    new = synthesizer.service_instances(media_profile(), 7, id_prefix="m")
    old = _legacy_fleet(2, 60, 3, [(media_profile(), 7)], 1)
    assert [r.instance_id for r in new] == [f"m-{i:05d}" for i in range(7)]
    for a, b in zip(new, old):
        assert np.array_equal(a.training_trace.values, b.training_trace.values)
        assert np.array_equal(a.test_trace.values, b.test_trace.values)


@pytest.mark.parametrize("profile", [p for p, _ in COMPOSITION], ids=lambda p: p.name)
def test_instance_trace_is_the_one_row_case(profile):
    new = TraceSynthesizer(weeks=2, step_minutes=60, seed=9)
    rng = np.random.default_rng(9)
    reference = TraceSynthesizer(weeks=2, step_minutes=60, seed=0)
    for _ in range(3):
        expected = _legacy_instance_trace(reference.grid, 2, profile, rng)
        assert new.instance_trace(profile) == expected


def test_instance_trace_with_fixed_personality():
    synthesizer = TraceSynthesizer(weeks=3, step_minutes=30, seed=0)
    personality = InstancePersonality(2.5, 1.3, 0.8)
    for profile in (web_profile(), _noiseless()):
        got = synthesizer.instance_trace(
            profile, personality, rng=np.random.default_rng(4)
        )
        expected = _legacy_instance_trace(
            synthesizer.grid, 3, profile, np.random.default_rng(4), personality
        )
        assert got == expected


@pytest.mark.parametrize("profile", [p for p, _ in COMPOSITION], ids=lambda p: p.name)
def test_draw_personality_matches(profile):
    new, old = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(5):
        assert draw_personality(profile, new) == _legacy_personality(profile, old)


def test_trace_sets_are_gathered_from_the_fleet_matrix():
    records = TraceSynthesizer(weeks=3, step_minutes=60, seed=2).fleet(
        [(web_profile(), 4), (db_profile(), 3)]
    )
    training = training_trace_set(records)
    test = heldout_trace_set(records)
    for row, record in enumerate(records):
        assert np.array_equal(training.matrix[row], record.training_trace.values)
        assert np.array_equal(test.matrix[row], record.test_trace.values)
    # The sets own their storage: editing one leaves the records alone.
    before = records[0].training_trace.values.copy()
    training.matrix[0] += 1.0
    assert np.array_equal(records[0].training_trace.values, before)
