"""Tests for the benchmark harness plumbing and the saturation row's cell."""

import pytest

from repro.bench.harness import ScaleProfile, machine_sweep
from repro.errors import ConfigError


class TestScaleProfile:
    def test_known_profiles(self):
        for name in ("smoke", "quick", "full"):
            profile = ScaleProfile.get(name)
            assert profile.name == name
            assert profile.duration > 0
            assert profile.clients_per_partition > 0

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            ScaleProfile.get("warp")

    def test_machine_sweep_clipped(self):
        profile = ScaleProfile.get("smoke")
        machines = machine_sweep(profile, targets=(1, 2, 4, 8, 16))
        assert machines
        assert max(machines) <= profile.max_machines

    def test_scales_ordered_by_effort(self):
        smoke, quick, full = (ScaleProfile.get(n) for n in ("smoke", "quick", "full"))
        assert smoke.duration < quick.duration < full.duration
        assert smoke.max_machines <= quick.max_machines <= full.max_machines


class TestSaturationSweep:
    """The ``saturation`` row of the experiment table, run at smoke."""

    def test_smoke_curve_shape(self):
        from repro.bench.experiments import EXPERIMENTS, run_experiment

        result = run_experiment("saturation", scale="smoke", seed=2012)
        assert EXPERIMENTS["saturation"].failed_claims(result) == []

    def test_sweep_deterministic(self):
        from repro.bench.experiments import run_experiment

        first = run_experiment("saturation", scale="smoke", seed=2012)
        second = run_experiment("saturation", scale="smoke", seed=2012)
        assert first.rows == second.rows

    def test_queue_policy_variant(self):
        from repro.bench.experiments import _FRACTIONS, _saturation_cell

        profile = ScaleProfile.get("smoke")
        rows = [
            _saturation_cell(fraction, profile, 2012, policy="queue")
            for fraction in _FRACTIONS["smoke"]
        ]
        assert len(rows) == 3
        assert rows[-1][-1] > 0  # drops count as rejected

