"""Property-based tests of the distribution substrate (hypothesis)."""

import functools
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import ParetoPoint, pareto_frontier
from repro.distribution.network import NetworkLink


@functools.lru_cache(maxsize=None)
def _session(model, device, framework):
    from repro.runtime import Scenario, default_runner

    return default_runner().session(Scenario(model, device, framework))


def _columns(edge, remote, link):
    """Every cut of one split between two (model, device, framework)
    sessions, priced over ``link``."""
    from repro.distribution import cut_columns

    edge, remote = _session(*edge), _session(*remote)
    return cut_columns(edge.plan, remote.plan,
                       edge.deployed.graph.table.cut_bytes, link)


def _links():
    """Arbitrary (but physical) links spanning bluetooth to datacenter."""
    return st.builds(
        NetworkLink,
        st.just("prop"),
        st.floats(1e4, 1e10, allow_nan=False),   # bandwidth bytes/s
        st.floats(0.0, 0.5, allow_nan=False),    # latency s
    )


@st.composite
def point_sets(draw):
    count = draw(st.integers(1, 12))
    return [
        ParetoPoint(
            label=f"p{i}",
            latency_s=draw(st.floats(1e-4, 10.0, allow_nan=False)),
            power_w=draw(st.floats(0.1, 300.0, allow_nan=False)),
        )
        for i in range(count)
    ]


class TestParetoProperties:
    @given(points=point_sets())
    @settings(max_examples=80, deadline=None)
    def test_frontier_is_non_dominated(self, points):
        frontier = pareto_frontier(points)
        for member in frontier:
            assert not any(other.dominates(member) for other in points)

    @given(points=point_sets())
    @settings(max_examples=80, deadline=None)
    def test_every_excluded_point_is_dominated(self, points):
        # pareto_frontier preserves object identity via list membership.
        labels = {p.label for p in pareto_frontier(points)}
        for point in points:
            if point.label not in labels:
                assert any(other.dominates(point) for other in points)

    @given(points=point_sets())
    @settings(max_examples=80, deadline=None)
    def test_frontier_is_idempotent(self, points):
        once = pareto_frontier(points)
        twice = pareto_frontier(once)
        assert {p.label for p in once} == {p.label for p in twice}

    @given(points=point_sets())
    @settings(max_examples=60, deadline=None)
    def test_minimum_on_each_axis_always_included(self, points):
        frontier_labels = {p.label for p in pareto_frontier(points)}
        fastest = min(points, key=lambda p: (p.latency_s, p.power_w))
        frugalest = min(points, key=lambda p: (p.power_w, p.latency_s))
        assert fastest.label in frontier_labels
        assert frugalest.label in frontier_labels


class TestLinkProperties:
    @given(
        bandwidth=st.floats(1e3, 1e10, allow_nan=False),
        latency=st.floats(0.0, 1.0, allow_nan=False),
        a=st.floats(0, 1e8, allow_subnormal=False),
        b=st.floats(0, 1e8, allow_subnormal=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_transfer_time_superadditive_in_payload(self, bandwidth, latency, a, b):
        """Two messages cost at least one combined message (extra latency)."""
        link = NetworkLink("t", bandwidth, latency)
        combined = link.transfer_time_s(a + b)
        split = link.transfer_time_s(a) + link.transfer_time_s(b)
        # Absolute slack alongside the relative one: denormal-scale payload
        # times carry one-ulp rounding asymmetries the relative bound
        # cannot absorb.
        assert split >= combined * (1 - 1e-9) - 1e-300

    @given(
        bandwidth=st.floats(1e3, 1e10, allow_nan=False),
        latency=st.floats(0.0, 1.0, allow_nan=False),
        payloads=st.lists(st.floats(0, 1e8), min_size=2, max_size=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_payload(self, bandwidth, latency, payloads):
        link = NetworkLink("t", bandwidth, latency)
        small, large = sorted(payloads)
        assert link.transfer_time_s(small) <= link.transfer_time_s(large) + 1e-12


class TestPipelineOptimality:
    def test_dp_matches_brute_force_on_small_chains(self):
        """The DP's bottleneck equals exhaustive search over all contiguous
        partitions, for every device count on a real small model."""
        from repro.distribution import load_link, lower_pipeline
        from repro.distribution.partition import cut_points
        from repro.runtime import Scenario, default_runner

        scenario = Scenario("CifarNet", "Raspberry Pi 3B", "TensorFlow")
        runner = default_runner()
        session = runner.session(scenario)
        timings = session.plan.op_latency_s.tolist()
        link = load_link("wifi")
        transfer = [link.transfer_time_s(c.transfer_bytes)
                    for c in cut_points(session.deployed.graph)]
        n = len(timings)

        def brute_force(devices: int) -> float:
            best = float("inf")
            for cuts in itertools.combinations(range(1, n), devices - 1):
                bounds = [0, *cuts, n]
                bottleneck = 0.0
                for i in range(devices):
                    start, end = bounds[i], bounds[i + 1]
                    compute = sum(timings[start:end])
                    outgoing = 0.0 if end == n else transfer[end]
                    bottleneck = max(bottleneck, compute + outgoing)
                best = min(best, bottleneck)
            return best

        # One device runs the whole model (ext-pipeline's one-device row).
        whole_s = float(np.cumsum(session.plan.op_latency_s)[-1])
        assert abs(whole_s - brute_force(1)) < 1e-12
        for devices in (2, 3):
            deployment = lower_pipeline([scenario] * devices, link,
                                        runner=runner)
            assert abs(deployment.bottleneck_s - brute_force(devices)) < 1e-12, devices


class TestSplitAccountingProperties:
    """Every cut's total decomposes exactly into its three legs."""

    @given(link=_links())
    @settings(max_examples=40, deadline=None)
    def test_total_is_edge_plus_transfer_plus_remote(self, link):
        columns = _columns(("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
                           ("MobileNet-v2", "GTX Titan X", "PyTorch"), link)
        for edge_s, transfer_s, remote_s, total_s in zip(
                columns.edge_s.tolist(), columns.transfer_s.tolist(),
                columns.remote_s.tolist(), columns.total_s.tolist()):
            assert total_s == edge_s + transfer_s + remote_s
            assert edge_s >= 0.0
            assert transfer_s >= 0.0
            assert remote_s >= 0.0

    @given(link=_links())
    @settings(max_examples=40, deadline=None)
    def test_best_cut_never_loses_to_any_cut(self, link):
        columns = _columns(("MobileNet-v2", "Jetson TX2", "PyTorch"),
                           ("MobileNet-v2", "GTX Titan X", "PyTorch"), link)
        total_s = columns.total_s.tolist()
        best = total_s[columns.best_index()]
        assert all(best <= total for total in total_s)


class TestPipelineThroughputProperties:
    """Steady-state throughput is set by the slowest stage, nothing else."""

    @given(link=_links(), devices=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_throughput_bounded_by_every_stage(self, link, devices):
        from repro.distribution import lower_pipeline
        from repro.placement import Deployment
        from repro.runtime import Scenario, default_runner

        cell = ("CifarNet", "Raspberry Pi 3B", "TensorFlow")
        scenario = Scenario(*cell)
        if devices == 1:
            # One device runs the whole model and ships nothing.
            plan = _session(*cell).plan
            deployment = Deployment.single(
                scenario, compute_s=float(np.cumsum(plan.op_latency_s)[-1]))
        else:
            deployment = lower_pipeline([scenario] * devices, link,
                                        runner=default_runner())
        assert deployment.bottleneck_s == max(
            stage.service_s for stage in deployment.stages)
        for stage in deployment.stages:
            assert deployment.throughput_rps <= 1.0 / stage.service_s + 1e-12
        assert deployment.latency_s >= deployment.bottleneck_s


class TestCutConservationProperties:
    """Cut crossing bytes are conserved by deployment graph transforms:
    fusion and freezing remove cut LOCATIONS (fused ops no longer
    materialize), never change what a surviving cut ships."""

    MODELS = ("CifarNet", "MobileNet-v2", "ResNet-18", "AlexNet")

    @given(model=st.sampled_from(MODELS),
           transform=st.sampled_from(("fuse", "freeze", "both")))
    @settings(max_examples=20, deadline=None)
    def test_surviving_cuts_ship_the_same_bytes(self, model, transform):
        from repro.distribution.partition import cut_points
        from repro.graphs.transforms import freeze_graph, fuse_graph
        from repro.models import load_model

        graph = load_model(model)
        transformed = {
            "fuse": fuse_graph,
            "freeze": freeze_graph,
            "both": lambda g: freeze_graph(fuse_graph(g)),
        }[transform](graph)
        original = cut_points(graph)
        after = cut_points(transformed)
        # Endpoints are invariant: the input always ships whole, the
        # output always returns whole.
        assert after[0].transfer_bytes == original[0].transfer_bytes
        assert after[-1].transfer_bytes == original[-1].transfer_bytes
        # Transforms only remove cut locations.
        assert len(after) <= len(original)
        # Every surviving cut crosses a tensor set the original graph
        # also exposed at some cut.
        original_bytes = {cut.transfer_bytes for cut in original}
        for cut in after:
            assert cut.transfer_bytes in original_bytes
