"""Unit tests for the application-facing performance-requirement API."""

import pytest

from repro.errors import ConfigurationError
from repro.rtm.api import RuntimeManagerAPI


class TestRuntimeManagerAPI:
    def test_register_and_query(self):
        api = RuntimeManagerAPI()
        target = api.register("decoder", frames_per_second=25.0)
        assert target.tref_s == pytest.approx(0.040)
        assert target.application_name == "decoder"
        assert api.effective_requirement() is target.requirement

    def test_explicit_reference_time(self):
        api = RuntimeManagerAPI()
        target = api.register("ffmpeg", frames_per_second=25.0, reference_time_s=0.031)
        assert target.tref_s == pytest.approx(0.031)

    def test_effective_requirement_is_the_tightest(self):
        api = RuntimeManagerAPI()
        api.register("video", frames_per_second=24.0)
        api.register("fft", frames_per_second=32.0)
        assert api.effective_requirement().tref_s == pytest.approx(1.0 / 32.0)

    def test_re_registration_replaces_target(self):
        api = RuntimeManagerAPI()
        api.register("video", frames_per_second=30.0)
        api.register("video", frames_per_second=24.0)
        # Had the 30 fps target been kept, it would still be the tightest.
        assert api.effective_requirement().tref_s == pytest.approx(1.0 / 24.0)

    def test_effective_requirement_without_targets_raises(self):
        with pytest.raises(ConfigurationError):
            RuntimeManagerAPI().effective_requirement()

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeManagerAPI().register("", 25.0)
