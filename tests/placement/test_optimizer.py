"""Placement optimizer: deterministic search, honest frontier, SLO gating."""

import pytest

from repro.placement import SLO, device_price_usd, search_placements

RPI = "Raspberry Pi 3B"


@pytest.fixture(scope="module")
def rpi_frontier():
    """The acceptance scenario: a lone Pi under a 2 inf/s SLO over LAN."""
    return search_placements("MobileNet-v2", edge_devices=(RPI,), link="lan",
                             slo=SLO(min_throughput_rps=2.0))


class TestSearch:
    def test_search_is_deterministic(self):
        kwargs = dict(edge_devices=(RPI, "Jetson Nano"), link="wifi",
                      remote_devices=("GTX Titan X",))
        first = search_placements("MobileNet-v2", **kwargs)
        second = search_placements("MobileNet-v2", **kwargs)
        assert first.to_dict() == second.to_dict()

    def test_unknown_model_rejected_before_the_sweep(self):
        from repro.core.errors import UnknownEntryError

        with pytest.raises(UnknownEntryError, match="NoSuchModel"):
            search_placements("NoSuchModel")

    def test_candidates_cover_all_three_kinds(self):
        frontier = search_placements(
            "MobileNet-v2", edge_devices=(RPI,), link="lan",
            remote_devices=("GTX Titan X",))
        kinds = {c.deployment.kind for c in frontier.candidates}
        assert kinds == {"single", "split", "pipeline"}

    def test_frontier_is_non_dominated(self, rpi_frontier):
        for member in rpi_frontier.frontier:
            for other in rpi_frontier.candidates:
                if other is member or not other.meets_slo:
                    continue
                assert not (
                    all(o <= m for o, m in zip(other.objectives,
                                               member.objectives))
                    and any(o < m for o, m in zip(other.objectives,
                                                  member.objectives)))

    def test_candidates_sorted_by_latency_first(self, rpi_frontier):
        latencies = [c.latency_s for c in rpi_frontier.candidates]
        assert latencies == sorted(latencies)

    def test_remote_devices_join_splits_but_never_lead_them(self):
        frontier = search_placements(
            "MobileNet-v2", edge_devices=(RPI,), link="wifi",
            remote_devices=("GTX Titan X",), max_pipeline_depth=2)
        splits = [c.deployment for c in frontier.candidates
                  if c.deployment.kind == "split"]
        assert splits, "expected split candidates against the remote GPU"
        assert all(d.devices[0] == RPI for d in splits)


class TestSplitCutsKept:
    """Per device pair the search keeps the latency-optimal cut and the
    all-remote cut (cut 0), lowered exactly as :func:`lower_split` would."""

    @pytest.mark.parametrize("edge_device, optimum_is_cut_0", [
        (RPI, True), ("Jetson TX2", False)])
    def test_split_candidates_are_the_best_and_all_remote_cuts(
            self, edge_device, optimum_is_cut_0):
        from repro.distribution import lower_split

        frontier = search_placements(
            "MobileNet-v2", edge_devices=(edge_device,),
            remote_devices=("GTX Titan X",), link="wifi",
            max_pipeline_depth=1)
        scenarios = {c.deployment.devices[0]: c.deployment.stages[0].scenario
                     for c in frontier.candidates
                     if c.deployment.is_single_node}
        edge, remote = scenarios[edge_device], scenarios["GTX Titan X"]
        best = lower_split(edge, remote, "wifi").to_dict()
        all_remote = lower_split(edge, remote, "wifi", cut_index=0).to_dict()
        assert (best == all_remote) is optimum_is_cut_0
        expected = [best] if optimum_is_cut_0 else [best, all_remote]
        splits = [c.deployment.to_dict() for c in frontier.candidates
                  if c.deployment.kind == "split"]
        assert sorted(splits, key=repr) == sorted(expected, key=repr)


class TestSLOGating:
    def test_pipeline_dominates_every_single_node_under_the_slo(
            self, rpi_frontier):
        """One Pi cannot hit 2 inf/s; a 2-stage Pi pipeline can — the whole
        point of unifying placements behind one optimizer."""
        singles = [c for c in rpi_frontier.candidates
                   if c.deployment.is_single_node]
        assert singles and all(not c.meets_slo for c in singles)
        best = rpi_frontier.best()
        assert best is not None
        assert best.deployment.kind == "pipeline"
        assert best.throughput_rps >= 2.0
        assert all(best.throughput_rps > c.throughput_rps for c in singles)

    def test_infeasible_candidates_carry_a_reason(self, rpi_frontier):
        rejected = [c for c in rpi_frontier.candidates if not c.meets_slo]
        assert rejected
        assert all("below required" in c.slo_reason for c in rejected)

    def test_unsatisfiable_slo_empties_the_frontier(self):
        frontier = search_placements(
            "MobileNet-v2", edge_devices=(RPI,), link="lan",
            slo=SLO(deadline_s=1e-6), max_pipeline_depth=2)
        assert frontier.frontier == ()
        assert frontier.best() is None
        assert "no candidate meets the SLO" in frontier.describe()

    def test_slo_round_trip(self):
        slo = SLO(deadline_s=0.5, min_throughput_rps=2.0, max_energy_j=1.0)
        assert SLO.from_dict(slo.to_dict()) == slo

    @pytest.mark.parametrize("field", ["deadline_s", "min_throughput_rps",
                                       "max_energy_j"])
    @pytest.mark.parametrize("bound", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -1.0, "fast"])
    def test_bad_bounds_rejected(self, field, bound):
        """NaN would compare False against every candidate and pass them
        all; zero, negative and infinite bounds are meaningless."""
        with pytest.raises(ValueError, match=field):
            SLO(**{field: bound})
        with pytest.raises(ValueError, match=field):
            SLO.from_dict({field: bound})


class TestCostModel:
    def test_pipeline_pays_for_every_board(self, rpi_frontier):
        best = rpi_frontier.best()
        assert best.cost_usd == pytest.approx(
            best.deployment.num_stages * device_price_usd(RPI))

    def test_unknown_device_rejected(self):
        from repro.core.errors import UnknownEntryError

        with pytest.raises(UnknownEntryError):
            device_price_usd("Abacus")


class TestDescribe:
    def test_describe_lists_frontier_shapes(self, rpi_frontier):
        text = rpi_frontier.describe()
        assert "pipeline x2" in text
        assert "inf/s" in text and "$" in text
