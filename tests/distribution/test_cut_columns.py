"""Cut columns: every split cut priced as float64 columns.

The per-cut scalar sweep (``tests/distribution/reference.py``) is the
oracle, at ZERO tolerance: the edge prefix is one sequential ``cumsum``
and every remote suffix sums left to right, exactly like the loop.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.distribution.pipeline as pipeline_module
import repro.distribution.split as split_module
from repro.distribution import (
    LINK_PRESETS,
    SplitPlanner,
    as_pipeline_plan,
    as_split_plan,
    cut_points,
    load_link,
    lower_pipeline,
    lower_split,
    partition_pipeline,
    partition_pipeline_heterogeneous,
    split_deployments,
)
from repro.distribution.split import _suffix_sums, cut_columns
from repro.engine.cache import clear_caches
from repro.frameworks import load_framework
from repro.graphs import GraphBuilder
from repro.hardware import load_device
from repro.models import list_models, load_model
from repro.placement import search_placements
from repro.runtime import Runner, Scenario, default_runner
from tests.distribution.reference import (
    reference_boundaries,
    reference_prefix_compute,
    reference_split_sweep,
)

REMOTE_DEVICES = ("GTX Titan X",)


def _assert_matches_sweep(columns, reference) -> None:
    """Three columns, crossing sizes and totals equal the scalar sweep."""
    assert len(columns) == len(reference)
    assert columns.edge_s.tolist() == [plan.edge_s for plan in reference]
    assert columns.transfer_s.tolist() == [plan.transfer_s for plan in reference]
    assert columns.remote_s.tolist() == [plan.remote_s for plan in reference]
    assert columns.cut_bytes.tolist() == [plan.cut.transfer_bytes
                                          for plan in reference]
    assert columns.total_s.tolist() == [plan.total_s for plan in reference]
    best = min(range(len(reference)), key=lambda i: reference[i].total_s)
    assert columns.best_index() == best


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
        """Each (edge, remote) pair the search prices, each link preset."""
        sides, priced = {}, []
        open_side, columns = split_module._open_side, split_module.cut_columns

        def recording_open_side(scenario, runner):
            side = open_side(scenario, runner)
            sides[id(side.plan)] = side
            return side

        def recording_columns(edge, remote, cut_bytes, link):
            priced.append((sides[id(edge)], sides[id(remote)]))
            return columns(edge, remote, cut_bytes, link)

        monkeypatch.setattr(split_module, "_open_side", recording_open_side)
        monkeypatch.setattr(split_module, "cut_columns", recording_columns)
        search_placements(model, remote_devices=REMOTE_DEVICES)
        assert priced
        runner = default_runner()
        for edge, remote in priced:
            edge_deployed = runner.session(edge.scenario).deployed
            remote_deployed = runner.session(remote.scenario).deployed
            for link in LINK_PRESETS.values():
                columns = cut_columns(edge.plan, remote.plan,
                                      edge.graph.table.cut_bytes, link)
                _assert_matches_sweep(columns, reference_split_sweep(
                    edge_deployed, remote_deployed, link))


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
        graph = load_model("ResNet-50")
        edge = load_framework("PyTorch").deploy(graph, load_device("Jetson TX2"))
        remote = load_framework("TensorRT").deploy(graph,
                                                   load_device("GTX Titan X"))
        reference = reference_split_sweep(edge, remote, load_link(link))
        planner = SplitPlanner(edge, remote, load_link(link))
        assert planner.sweep() == reference
        relinked = SplitPlanner(edge, remote, load_link("lte")).with_link(
            load_link(link))
        assert relinked.sweep() == reference
        best = min(reference, key=lambda plan: plan.total_s)
        assert planner.best() == best
        assert planner.all_edge() == reference[-1]
        assert planner.all_remote() == reference[0]

    def test_plans_hold_python_scalars(self):
        plan = SplitPlanner(
            *(load_framework("PyTorch").deploy(load_model("ResNet-18"),
                                               load_device(device))
              for device in ("Jetson TX2", "GTX Titan X")),
            load_link("wifi")).best()
        assert type(plan.cut.transfer_bytes) is int
        assert all(type(value) is float
                   for value in (plan.edge_s, plan.transfer_s, plan.remote_s))

    def test_split_deployments_lower_every_cut(self, reference):
        lowered = split_deployments(self.EDGE, self.REMOTE, "wifi")
        assert len(lowered) == len(reference)
        for deployment, plan in zip(lowered[:-1], reference):
            assert as_split_plan(deployment) == plan
        all_edge = lowered[-1]
        assert all_edge.kind == "single"
        assert all_edge.stages[0].compute_s == reference[-1].edge_s

    def test_lower_split_at_the_input_the_best_cut_and_all_edge(self, reference):
        best = min(range(len(reference)), key=lambda i: reference[i].total_s)
        assert 0 < best < len(reference) - 1  # an interior optimum
        for cut_index in (0, best):
            deployment = lower_split(self.EDGE, self.REMOTE, "wifi",
                                     cut_index=cut_index)
            assert as_split_plan(deployment) == reference[cut_index]
        assert lower_split(self.EDGE, self.REMOTE, "wifi") == lower_split(
            self.EDGE, self.REMOTE, "wifi", cut_index=best)
        all_edge = lower_split(self.EDGE, self.REMOTE, "wifi",
                               cut_index=len(reference) - 1)
        assert all_edge.latency_s == reference[-1].total_s

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
        columns = SplitPlanner(edge, remote, link).columns
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
        assert _suffix_sums(values).tolist() == [sum(listed[k:])
                                                 for k in range(count)]


def _pipeline_reference(deployments, link):
    """(boundaries, prefixes, transfer_at) of the scalar pipeline DP."""
    schedulable = [op.name for op in deployments[0].graph.schedulable_ops()]
    prefixes = [reference_prefix_compute(deployed, schedulable)
                for deployed in deployments]
    transfer_at = [link.transfer_time_s(cut.transfer_bytes)
                   for cut in cut_points(deployments[0].graph)]
    return reference_boundaries(prefixes, transfer_at), prefixes, transfer_at


def _assert_matches_dp(plan, deployments, link) -> None:
    boundaries, prefixes, transfer_at = _pipeline_reference(deployments, link)
    last = len(deployments) - 1
    consumed = [0]
    for d, stage in enumerate(plan.stages):
        consumed.append(consumed[-1] + len(stage.op_names))
        start, end = boundaries[d], boundaries[d + 1]
        assert stage.compute_s == prefixes[d][end] - prefixes[d][start]
        assert stage.outgoing_transfer_s == (0.0 if d == last
                                             else transfer_at[end])
    assert consumed == boundaries


class TestPipelines:
    @pytest.mark.parametrize("model", ["MobileNet-v2", "ResNet-50", "TinyYolo"])
    @pytest.mark.parametrize("num_devices", [1, 2, 3])
    def test_partition_pipeline(self, model, num_devices):
        deployed = load_framework("PyTorch").deploy(
            load_model(model), load_device("Raspberry Pi 3B"))
        link = load_link("wifi")
        plan = partition_pipeline(deployed, num_devices, link)
        _assert_matches_dp(plan, [deployed] * num_devices, link)

    def test_partition_pipeline_heterogeneous(self):
        graph = load_model("ResNet-18")
        deployments = [load_framework("PyTorch").deploy(graph, load_device(name))
                       for name in ("Raspberry Pi 3B", "Jetson Nano",
                                    "Jetson TX2")]
        link = load_link("lan")
        plan = partition_pipeline_heterogeneous(deployments, link)
        _assert_matches_dp(plan, deployments, link)

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
        _assert_matches_dp(as_pipeline_plan(deployment), deployments, link)
        cuts = cut_points(deployments[0].graph)
        consumed = 0
        for stage in deployment.stages[:-1]:
            consumed += len(stage.op_names)
            assert stage.transfer_bytes == cuts[consumed].transfer_bytes
            assert type(stage.transfer_bytes) is int


class TestSearchCounts:
    def test_cold_search_builds_no_cut_list_and_one_session_per_device(
            self, monkeypatch):
        """Splits open each device's runner session once per search."""
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

        in_pipeline = []
        split_sessions = []
        session = Runner.session
        original_lower_pipeline = pipeline_module.lower_pipeline

        def counting_session(self, scenario, graph=None):
            if not in_pipeline:
                split_sessions.append(scenario)
            return session(self, scenario, graph)

        def marked_lower_pipeline(*args, **kwargs):
            in_pipeline.append(True)
            try:
                return original_lower_pipeline(*args, **kwargs)
            finally:
                in_pipeline.pop()

        monkeypatch.setattr(Runner, "session", counting_session)
        monkeypatch.setattr(pipeline_module, "lower_pipeline",
                            marked_lower_pipeline)
        clear_caches()
        frontier = search_placements("ResNet-18", remote_devices=REMOTE_DEVICES)
        assert calls["cut_points"] == 0
        splits = {c.deployment.devices for c in frontier.candidates
                  if c.deployment.kind == "split"}
        devices = {device for pair in splits for device in pair}
        assert len(devices) >= 3
        assert sorted(s.device for s in split_sessions) == sorted(devices)
