"""Unit tests for FaultProfile: validation, presets, meta round-trip."""

import math

import pytest

from repro.faults import FAULT_PROFILES, FaultProfile, named_profile

FLOAT_FIELDS = (
    "mtbf",
    "mttr",
    "copy_fail_rate",
    "slowdown_rate",
    "slowdown_factor",
    "slowdown_duration",
)

#: The fields an infinite value would stall or break a run through.
INFINITE_REJECTED = ("copy_fail_rate", "slowdown_rate", "slowdown_factor")


class TestValidation:
    def test_default_injects_nothing(self):
        p = FaultProfile()
        assert not p.enabled
        assert not p.server_churn

    def test_finite_mtbf_enables_churn(self):
        p = FaultProfile(mtbf=600.0)
        assert p.server_churn and p.enabled

    def test_copy_fail_rate_enables(self):
        assert FaultProfile(copy_fail_rate=0.01).enabled

    def test_slowdown_rate_enables(self):
        assert FaultProfile(slowdown_rate=0.01).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf": 0.0},
            {"mtbf": -1.0},
            {"mttr": 0.0},
            {"copy_fail_rate": -0.1},
            {"slowdown_rate": -0.1},
            {"slowdown_factor": 1.0},
            {"slowdown_duration": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(**kwargs)

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_rejects_nan_naming_the_field(self, field):
        """NaN compares false with everything, so a ``value <= 0`` check
        lets it through: churn or copy failures silently off, or events
        at time NaN."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FaultProfile(**{field: math.nan})

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_from_meta_rejects_nan(self, field):
        meta = {**FAULT_PROFILES["chaos"].to_meta(), field: math.nan}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FaultProfile.from_meta(meta)

    def test_infinite_mtbf_still_disables_churn(self):
        assert not FaultProfile(mtbf=math.inf).server_churn

    @pytest.mark.parametrize("field", INFINITE_REJECTED)
    def test_rejects_infinity_naming_the_field(self, field):
        """An infinite rate draws intervals of zero: every copy fails, or
        every window opens, at the instant it starts, and the run never
        ends; an infinite factor makes every copy in a window infinite."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FaultProfile(**{field: math.inf})

    @pytest.mark.parametrize("field", INFINITE_REJECTED)
    def test_from_meta_rejects_infinity(self, field):
        meta = {**FAULT_PROFILES["chaos"].to_meta(), field: math.inf}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FaultProfile.from_meta(meta)

    def test_from_meta_keeps_infinite_mtbf(self):
        meta = {**FAULT_PROFILES["chaos"].to_meta(), "mtbf": math.inf}
        assert not FaultProfile.from_meta(meta).server_churn


class TestMetaRoundTrip:
    def test_round_trip_identity(self):
        for name, profile in FAULT_PROFILES.items():
            assert FaultProfile.from_meta(profile.to_meta()) == profile, name

    def test_infinite_mtbf_serializes_as_none(self):
        meta = FaultProfile().to_meta()
        assert meta["mtbf"] is None
        assert math.isinf(FaultProfile.from_meta(meta).mtbf)

    def test_meta_is_plain_json_scalars(self):
        import json

        for profile in FAULT_PROFILES.values():
            json.dumps(profile.to_meta())  # must not raise


class TestPresets:
    def test_none_preset_disabled(self):
        assert not FAULT_PROFILES["none"].enabled

    def test_all_other_presets_enabled(self):
        for name, p in FAULT_PROFILES.items():
            if name != "none":
                assert p.enabled, name

    def test_named_profile_case_insensitive(self):
        assert named_profile("CHURN") == FAULT_PROFILES["churn"]

    def test_named_profile_unknown(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            named_profile("meteor-strike")

    def test_named_profile_overrides(self):
        p = named_profile("churn", mtbf=120.0, mttr=5.0)
        assert p.mtbf == 120.0 and p.mttr == 5.0
        # Non-overridden fields keep the preset's values.
        assert p.keep_one_up is FAULT_PROFILES["churn"].keep_one_up

    def test_named_profile_no_overrides_returns_preset(self):
        assert named_profile("flaky") is FAULT_PROFILES["flaky"]

    def test_override_can_enable_none(self):
        p = named_profile("none", copy_fail_rate=0.5)
        assert p.enabled
