"""Cut columns: every split cut priced as float64 columns.

The per-cut scalar sweep (``tests/distribution/reference.py``) is the
oracle, at ZERO tolerance: the edge prefix is one sequential ``cumsum``
and every remote suffix sums left to right, exactly like the loop.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.distribution.split as split_module
from repro.core.summation import serial_sum
from repro.distribution import (
    LINK_PRESETS,
    cut_points,
    load_link,
    lower_pipeline,
    lower_split,
    split_deployments,
)
from repro.distribution.split import _suffix_sums, cut_columns, cut_grid
from repro.engine import InferenceSession
from repro.engine.cache import clear_caches
from repro.frameworks import load_framework
from repro.graphs import GraphBuilder
from repro.hardware import load_device
from repro.models import list_models, load_model
from repro.placement import search_placements
from repro.runtime import Runner, Scenario, default_runner
from tests.distribution.reference import (
    reference_pipeline,
    reference_prefix_compute,
    reference_split_legs,
    reference_split_sweep,
    stage_fields,
)

REMOTE_DEVICES = ("GTX Titan X",)


def _assert_matches_sweep(columns, reference) -> None:
    """Three columns, crossing sizes and totals equal the scalar sweep."""
    assert len(columns) == len(reference.cuts)
    assert columns.edge_s.tolist() == reference.edge_s
    assert columns.transfer_s.tolist() == reference.transfer_s
    assert columns.remote_s.tolist() == reference.remote_s
    assert columns.cut_bytes.tolist() == [cut.transfer_bytes
                                          for cut in reference.cuts]
    assert columns.total_s.tolist() == reference.total_s
    assert columns.best_index() == reference.best_index()


def _plan_columns(edge, remote, link):
    """The cut columns of two deployments of one graph, each priced by
    its own engine session (synthetic graphs have no scenario)."""
    return cut_columns(InferenceSession(edge).plan, InferenceSession(remote).plan,
                       edge.graph.table.cut_bytes, link)


def _chain(num_ops: int):
    """A conv/relu chain scheduling exactly ``num_ops`` ops unfused."""
    b = GraphBuilder(f"chain-{num_ops}")
    x = b.input((8, 8, 8))
    for i in range(num_ops):
        x = b.conv2d(x, 8, 3, use_bias=False) if i % 2 == 0 else b.relu(x)
    return b.build()


class TestZooPairs:
    @pytest.mark.parametrize("model", list_models())
    def test_every_priced_pair_over_every_link(self, model, monkeypatch):
        """Each cut grid the search prices, repriced over each link preset:
        every (edge, remote) pair it holds equals the scalar sweep, and the
        grids cover every split pair among the candidates."""
        sides, grids = {}, []
        open_side, grid = split_module._open_side, split_module.cut_grid

        def recording_open_side(scenario, runner):
            side = open_side(scenario, runner)
            sides[id(side.plan)] = side
            return side

        def recording_grid(edges, remotes, cut_bytes, link):
            grids.append(([sides[id(plan)] for plan in edges],
                          [sides[id(plan)] for plan in remotes], cut_bytes))
            return grid(edges, remotes, cut_bytes, link)

        monkeypatch.setattr(split_module, "_open_side", recording_open_side)
        monkeypatch.setattr(split_module, "cut_grid", recording_grid)
        frontier = search_placements(model, remote_devices=REMOTE_DEVICES)
        assert grids
        runner = default_runner()
        priced = set()
        for edges, remotes, cut_bytes in grids:
            # The scalar edge and remote legs do not depend on the link:
            # price them once per pair, and only the transfer leg per link.
            legs = {(i, j): reference_split_legs(
                        runner.session(edge.scenario).deployed,
                        runner.session(remote.scenario).deployed)
                    for i, edge in enumerate(edges)
                    for j, remote in enumerate(remotes)
                    if edge.scenario != remote.scenario}
            priced.update((edges[i].scenario.device, remotes[j].scenario.device)
                          for i, j in legs)
            for link in LINK_PRESETS.values():
                relinked = cut_grid([side.plan for side in edges],
                                    [side.plan for side in remotes],
                                    cut_bytes, link)
                total_s, best = relinked.total_s, relinked.best_indices()
                for (i, j), pair_legs in legs.items():
                    reference = pair_legs.over(link)
                    _assert_matches_sweep(relinked.pair(i, j), reference)
                    assert total_s[i, j].tolist() == reference.total_s
                    assert best[i, j] == reference.best_index()
        splits = {c.deployment.devices for c in frontier.candidates
                  if c.deployment.kind == "split"}
        assert splits <= priced


class TestEntryPoints:
    EDGE = Scenario("MobileNet-v2", "Jetson TX2", "PyTorch")
    REMOTE = Scenario("MobileNet-v2", "GTX Titan X", "PyTorch")

    @pytest.fixture(scope="class")
    def reference(self):
        runner = default_runner()
        return reference_split_sweep(runner.session(self.EDGE).deployed,
                                     runner.session(self.REMOTE).deployed,
                                     load_link("wifi"))

    @pytest.mark.parametrize("link", ["wifi", "bluetooth", "ethernet"])
    def test_planner_sweep_and_with_link(self, link):
        """One pair of plans repriced per link, as ext-split does: every
        cut equals the scalar sweep over ``link``, and so do the best cut
        and both endpoints; the link moves the transfer leg only."""
        graph = load_model("ResNet-50")
        edge = load_framework("PyTorch").deploy(graph, load_device("Jetson TX2"))
        remote = load_framework("TensorRT").deploy(graph,
                                                   load_device("GTX Titan X"))
        reference = reference_split_sweep(edge, remote, load_link(link))
        plans = InferenceSession(edge).plan, InferenceSession(remote).plan
        cut_bytes = edge.graph.table.cut_bytes
        lte = cut_columns(*plans, cut_bytes, load_link("lte"))
        relinked = cut_columns(*plans, cut_bytes, load_link(link))
        _assert_matches_sweep(relinked, reference)
        assert lte.edge_s.tolist() == relinked.edge_s.tolist()
        assert lte.remote_s.tolist() == relinked.remote_s.tolist()
        assert lte.transfer_s.tolist() != relinked.transfer_s.tolist()
        best = reference.best_index()
        assert relinked.total_s[best] == min(reference.total_s)
        assert relinked.total_s[-1] == reference.total_s[-1]  # all edge
        assert relinked.total_s[0] == reference.total_s[0]  # all remote

    def test_plans_hold_python_scalars(self):
        """Every lowered cut's stages carry Python numbers, not NumPy
        scalars, the all-edge single node included."""
        for deployment in split_deployments(
                Scenario("ResNet-18", "Jetson TX2", "PyTorch"),
                Scenario("ResNet-18", "GTX Titan X", "PyTorch"), "wifi"):
            for stage in deployment.stages:
                assert type(stage.transfer_bytes) is int
                assert type(stage.compute_s) is float
                assert type(stage.transfer_s) is float

    def test_split_deployments_lower_every_cut(self, reference):
        lowered = split_deployments(self.EDGE, self.REMOTE, "wifi")
        assert len(lowered) == len(reference.cuts)
        for index, deployment in enumerate(lowered[:-1]):
            assert stage_fields(deployment) == reference.split_stages(index)
        all_edge = lowered[-1]
        assert all_edge.kind == "single"
        assert all_edge.stages[0].compute_s == reference.edge_s[-1]

    def test_lower_split_at_the_input_the_best_cut_and_all_edge(self, reference):
        best = reference.best_index()
        assert 0 < best < len(reference.cuts) - 1  # an interior optimum
        for cut_index in (0, best):
            deployment = lower_split(self.EDGE, self.REMOTE, "wifi",
                                     cut_index=cut_index)
            assert stage_fields(deployment) == reference.split_stages(cut_index)
        assert lower_split(self.EDGE, self.REMOTE, "wifi") == lower_split(
            self.EDGE, self.REMOTE, "wifi", cut_index=best)
        all_edge = lower_split(self.EDGE, self.REMOTE, "wifi",
                               cut_index=len(reference.cuts) - 1)
        assert all_edge.latency_s == reference.total_s[-1]

    def test_negative_payload_still_rejected(self):
        with pytest.raises(ValueError, match="negative payload"):
            load_link("wifi").transfer_time_s(np.array([1, -1, 2]))


class TestSuffixBlocks:
    @pytest.mark.parametrize("num_ops", [63, 64, 65, 128])
    def test_remote_side_fusing_away_edge_ops(self, num_ops):
        """TensorRT fuses every relu the unfused edge schedules: those
        ops cost 0.0 remotely, so their cut moves no remote time."""
        graph = _chain(num_ops)
        edge = load_framework("PyTorch").deploy(graph, load_device("Jetson TX2"))
        remote = load_framework("TensorRT").deploy(graph,
                                                   load_device("GTX Titan X"))
        assert len(edge.graph.schedulable_ops()) == num_ops
        assert len(remote.graph.schedulable_ops()) == (num_ops + 1) // 2
        link = load_link("wifi")
        columns = _plan_columns(edge, remote, link)
        _assert_matches_sweep(columns, reference_split_sweep(edge, remote, link))
        remote_s = columns.remote_s
        for k in range(1, num_ops - 1, 2):  # op k is a relu
            assert remote_s[k] == remote_s[k + 1]
            assert remote_s[k - 1] > remote_s[k]

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 129])
    def test_each_suffix_sums_left_to_right(self, count):
        values = np.random.default_rng(count).lognormal(-9.0, 3.0, count)
        values[::7] = 0.0
        listed = values.tolist()
        assert _suffix_sums(values).tolist() == [serial_sum(listed[k:])
                                                 for k in range(count)]


class TestPipelines:
    @pytest.mark.parametrize("model", ["MobileNet-v2", "ResNet-50", "TinyYolo"])
    @pytest.mark.parametrize("num_devices", [1, 2, 3])
    def test_partition_pipeline(self, model, num_devices):
        """``num_devices`` Raspberry Pis: the chain's stages are the scalar
        DP's; one device's whole-model time (ext-pipeline's one-device
        row) is the plan's per-op latencies summed in sequence."""
        scenario = Scenario(model, "Raspberry Pi 3B", "PyTorch")
        runner = default_runner()
        session = runner.session(scenario)
        deployed = session.deployed
        link = load_link("wifi")
        if num_devices == 1:
            schedulable = [op.name for op in deployed.graph.schedulable_ops()]
            whole_s = np.cumsum(session.plan.op_latency_s)[-1]
            assert whole_s == reference_prefix_compute(deployed, schedulable)[-1]
        else:
            deployment = lower_pipeline([scenario] * num_devices, link,
                                        runner=runner)
            assert stage_fields(deployment) == reference_pipeline(
                [deployed] * num_devices, link)

    def test_partition_pipeline_heterogeneous(self):
        chain = [Scenario("ResNet-18", device, "PyTorch")
                 for device in ("Raspberry Pi 3B", "Jetson Nano", "Jetson TX2")]
        runner = default_runner()
        link = load_link("lan")
        deployment = lower_pipeline(chain, link, runner=runner)
        assert stage_fields(deployment) == reference_pipeline(
            [runner.session(s).deployed for s in chain], link)

    @pytest.mark.parametrize("devices", [
        ("Jetson Nano", "Jetson Nano"),
        ("Jetson Nano", "Jetson TX2", "Raspberry Pi 3B"),
    ])
    def test_lower_pipeline(self, devices):
        chain = [Scenario("MobileNet-v2", device, "PyTorch")
                 for device in devices]
        runner = default_runner()
        link = load_link("wifi")
        deployment = lower_pipeline(chain, link, runner=runner)
        deployments = [runner.session(s).deployed for s in chain]
        assert stage_fields(deployment) == reference_pipeline(deployments,
                                                              link)
        for stage in deployment.stages:
            assert type(stage.transfer_bytes) is int
            assert type(stage.compute_s) is float
            assert type(stage.transfer_s) is float


class TestSearchCounts:
    def test_cold_search_builds_no_cut_list_and_one_session_per_device(
            self, monkeypatch):
        """The search opens each device's runner session once, for its
        splits and its pipelines alike, and builds no cut list."""
        calls = {"cut_points": 0}
        original_cut_points = cut_points

        def counting_cut_points(graph):
            calls["cut_points"] += 1
            return original_cut_points(graph)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original_cut_points:
                        monkeypatch.setattr(module, attr, counting_cut_points)

        sessions = []
        session = Runner.session

        def counting_session(self, scenario, graph=None):
            sessions.append(scenario)
            return session(self, scenario, graph)

        monkeypatch.setattr(Runner, "session", counting_session)
        clear_caches()
        frontier = search_placements("ResNet-18", remote_devices=REMOTE_DEVICES)
        assert calls["cut_points"] == 0
        splits = {c.deployment.devices for c in frontier.candidates
                  if c.deployment.kind == "split"}
        devices = {device for pair in splits for device in pair}
        assert len(devices) >= 3
        assert {c.deployment.kind for c in frontier.candidates} == {
            "single", "split", "pipeline"}
        assert sorted(s.device for s in sessions) == sorted(devices)
