"""Deployment advisor."""

import pytest

from repro.analysis import (
    Requirements,
    best_deployment,
    recommend_deployments,
)


class TestRequirements:
    def test_unconstrained_accepts_anything(self):
        ok, reason = Requirements().check(100.0, 1000.0, 1e6)
        assert ok and reason == ""

    def test_deadline(self):
        ok, reason = Requirements(deadline_s=0.05).check(0.06, 1.0, 0.01)
        assert not ok and "deadline" in reason

    def test_power(self):
        ok, reason = Requirements(power_budget_w=5.0).check(0.01, 9.0, 0.01)
        assert not ok and "W budget" in reason

    def test_energy(self):
        ok, reason = Requirements(energy_budget_j=0.05).check(0.01, 1.0, 0.06)
        assert not ok and "mJ/inference" in reason

    @pytest.mark.parametrize("field", ["deadline_s", "power_budget_w",
                                       "energy_budget_j"])
    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bounds_must_be_finite_and_positive(self, field, bound):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            Requirements(**{field: bound})


class TestRecommendations:
    @pytest.fixture(scope="class")
    def results(self):
        return recommend_deployments(
            "MobileNet-v2",
            Requirements(deadline_s=0.060, power_budget_w=6.0),
        )

    def test_feasible_sorted_first_by_energy(self, results):
        feasible = [r for r in results if r.feasible]
        assert feasible
        energies = [r.energy_j for r in feasible]
        assert energies == sorted(energies)
        # All feasible entries precede all rejected ones.
        first_rejected = next((i for i, r in enumerate(results) if not r.feasible),
                              len(results))
        assert all(r.feasible for r in results[:first_rejected])

    def test_rejections_carry_reasons(self, results):
        rejected = [r for r in results if not r.feasible]
        assert all(r.reason for r in rejected)

    def test_constraints_actually_enforced(self, results):
        for r in results:
            if r.feasible:
                assert r.latency_s <= 0.060
                assert r.power_w <= 6.0

    def test_edgetpu_wins_mobilenet(self, results):
        assert results[0].device == "EdgeTPU"

    def test_operating_points_explored(self):
        results = recommend_deployments("MobileNet-v2", Requirements())
        points = {(r.device, r.operating_point) for r in results}
        assert ("Jetson TX2", "Max-Q") in points
        assert ("Jetson Nano", "5W") in points

    def test_operating_points_can_be_disabled(self):
        results = recommend_deployments("MobileNet-v2", Requirements(),
                                        include_operating_points=False)
        assert all(r.operating_point in ("default", "Max-N", "10W") for r in results)

    def test_undeployable_configurations_absent(self):
        results = recommend_deployments("C3D", Requirements())
        devices = {r.device for r in results}
        assert "Movidius NCS" not in devices  # NCSDK rejects conv3d
        assert "EdgeTPU" not in devices  # conversion barrier

    def test_describe(self, results):
        text = results[0].describe()
        assert "ms" in text and "OK" in text


class TestBestDeployment:
    def test_returns_cheapest_feasible(self):
        best = best_deployment("MobileNet-v2",
                               Requirements(deadline_s=0.100))
        assert best is not None and best.feasible

    def test_impossible_constraints_return_none(self):
        assert best_deployment(
            "Inception-v4", Requirements(deadline_s=0.001)) is None

    def test_power_cap_excludes_jetsons_at_full_tilt(self):
        """A 3 W cap forces the accelerator sticks or a budget mode."""
        best = best_deployment("MobileNet-v2", Requirements(power_budget_w=3.0))
        assert best is not None
        assert best.device in ("Movidius NCS", "Jetson Nano", "Raspberry Pi 3B")
        assert best.power_w <= 3.0


class TestRecommendPlacements:
    def test_maps_requirements_onto_the_placement_slo(self):
        from repro.analysis import recommend_placements

        frontier = recommend_placements(
            "MobileNet-v2", Requirements(deadline_s=0.060),
            devices=("Jetson Nano", "Jetson TX2"), link="wifi",
            max_pipeline_depth=2)
        assert frontier.slo.deadline_s == 0.060
        assert frontier.frontier
        assert all(c.latency_s <= 0.060 for c in frontier.frontier)

    def test_multi_device_shapes_compete_with_single_nodes(self):
        from repro.analysis import recommend_placements

        frontier = recommend_placements(
            "MobileNet-v2", Requirements(),
            devices=("Raspberry Pi 3B",), link="lan", max_pipeline_depth=2)
        kinds = {c.deployment.kind for c in frontier.candidates}
        assert "single" in kinds and "pipeline" in kinds
