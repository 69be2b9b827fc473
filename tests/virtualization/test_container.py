"""Docker-style container overhead (Figure 13 mechanics)."""

import pytest

from repro.harness.paper_data import FIG13_MODELS
from repro.runtime import Scenario, default_runner
from repro.virtualization import Container
from repro.virtualization.container import MAX_OVERHEAD_FRACTION


class TestContainerOverhead:
    def test_containerized_is_slower_but_bounded(self, session_factory):
        container = Container()
        for model_name in FIG13_MODELS:
            session = session_factory(model_name, "Raspberry Pi 3B", "TensorFlow")
            contained = container.wrap(session)
            assert contained.latency_s > session.latency_s
            assert contained.overhead_fraction <= MAX_OVERHEAD_FRACTION + 1e-9

    def test_fixed_tax_hits_fast_models_harder(self, session_factory):
        container = Container()
        fast = container.wrap(session_factory("ResNet-18", "Raspberry Pi 3B", "TensorFlow"))
        slow = container.wrap(session_factory("Inception-v4", "Raspberry Pi 3B", "TensorFlow"))
        assert fast.overhead_fraction >= slow.overhead_fraction

    def test_startup_cost_outside_timed_loop(self, session_factory):
        session = session_factory("ResNet-18", "Raspberry Pi 3B", "TensorFlow")
        contained = Container().wrap(session)
        assert contained.init_time_s > session.init_time_s
        # ... but per-inference latency still within the 5% bound.
        assert contained.overhead_fraction <= MAX_OVERHEAD_FRACTION + 1e-9

    def test_run_and_utilization_delegate(self, session_factory):
        session = session_factory("ResNet-18", "Raspberry Pi 3B", "TensorFlow")
        contained = Container().wrap(session)
        assert contained.utilization == session.utilization
        assert contained.run(3) == [contained.latency_s] * 3
        assert contained.deployed is session.deployed

    @pytest.mark.parametrize("containerized", [False, True])
    @pytest.mark.parametrize("n_inferences", [0, -3])
    def test_run_rejects_a_nonpositive_count(self, containerized, n_inferences):
        session = default_runner().session(Scenario(
            "ResNet-18", "Jetson Nano", "TensorRT", containerized=containerized))
        with pytest.raises(ValueError, match="n_inferences must be positive"):
            session.run(n_inferences)

    def test_custom_profile(self, session_factory):
        session = session_factory("ResNet-18", "Raspberry Pi 3B", "TensorFlow")
        heavy = Container(name="hypervisor", fixed_tax_s=1.0, proportional_tax=0.5)
        contained = heavy.wrap(session)
        # Even a pathological profile is clipped at the cap.
        assert contained.overhead_fraction == pytest.approx(MAX_OVERHEAD_FRACTION)
