"""Collaborative pipeline partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import load_link, lower_pipeline
from repro.distribution.pipeline import _BLOCK, _partition
from repro.distribution.split import _prefix_latency
from repro.runtime import Scenario, default_runner
from tests.distribution.reference import reference_boundaries

SCENARIO = Scenario("TinyYolo", "Raspberry Pi 3B", "TensorFlow")


def _pipeline(num_devices, link="wifi"):
    return lower_pipeline([SCENARIO] * num_devices, link,
                          runner=default_runner())


def _whole_model_s():
    """One device runs the whole model: its plan's per-op latencies in
    sequence, with nothing to ship (ext-pipeline's one-device row)."""
    plan = default_runner().session(SCENARIO).plan
    return float(np.cumsum(plan.op_latency_s)[-1])


class TestPartition:
    def test_single_device_is_the_whole_model(self):
        session = default_runner().session(SCENARIO)
        plan = session.plan
        n = len(plan.ops)
        transfer_at = load_link("wifi").transfer_time_s(
            session.deployed.graph.table.cut_bytes)
        prefix = _prefix_latency(plan)
        assert _partition([prefix], transfer_at) == [(0, n, prefix[n], 0.0)]
        assert _whole_model_s() == prefix[n]
        session_free = sum(t.latency_s for t in plan.timings)
        assert _whole_model_s() == pytest.approx(session_free)

    def test_stages_cover_all_ops_contiguously(self):
        deployment = _pipeline(3)
        flattened = [name for stage in deployment.stages
                     for name in stage.op_names]
        graph = default_runner().session(SCENARIO).deployed.graph
        assert flattened == [op.name for op in graph.schedulable_ops()]

    def test_throughput_improves_with_devices(self):
        fps = [1.0 / _whole_model_s(), _pipeline(2).throughput_rps,
               _pipeline(3).throughput_rps]
        assert fps[1] > fps[0]
        assert fps[2] >= fps[1]

    def test_scaling_saturates_at_the_largest_op(self):
        """An indivisible op bounds the bottleneck no matter how many
        devices join — the sublinear scaling the collaborative papers see."""
        plan = default_runner().session(SCENARIO).plan
        largest_op = float(plan.op_latency_s.max())
        assert _pipeline(8).bottleneck_s >= largest_op

    def test_latency_grows_while_throughput_improves(self):
        one_s = _whole_model_s()
        three = _pipeline(3)
        assert three.throughput_rps > 1.0 / one_s
        assert three.latency_s > one_s

    def test_slow_links_penalize_deep_pipelines(self):
        fast = _pipeline(4, "ethernet")
        slow = _pipeline(4, "bluetooth")
        assert slow.bottleneck_s > fast.bottleneck_s

    def test_invalid_device_counts(self):
        with pytest.raises(ValueError, match="at least two"):
            lower_pipeline([], "wifi")
        with pytest.raises(ValueError, match="cannot spread"):
            _pipeline(10_000)

    def test_describe(self):
        text = _pipeline(2).describe()
        assert text.startswith("pipeline over wifi")
        assert "stage 0" in text and "stage 1" in text
        assert "inf/s" in text and "bottleneck" in text


#: Few distinct values make exact ties (equal stages, equal candidates)
#: common; zeros make whole empty-cost runs.
_TIMES = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                   st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


def _prefix(values):
    prefix = [0.0]
    for value in values:
        prefix.append(prefix[-1] + value)
    return prefix


@st.composite
def _chains(draw):
    """(per-device prefix sums, transfer_at) for N ops on D devices."""
    n = draw(st.integers(1, 3 * _BLOCK + 8))  # N + 1 straddles the blocks
    num_devices = draw(st.integers(1, min(6, n)))
    per_op = st.lists(_TIMES, min_size=n, max_size=n)
    if draw(st.booleans()):
        prefixes = [_prefix(draw(per_op))] * num_devices
    else:
        prefixes = [_prefix(draw(per_op)) for _ in range(num_devices)]
    transfer_at = draw(st.lists(_TIMES, min_size=n + 1, max_size=n + 1))
    return prefixes, transfer_at


class TestMatchesScalarReference:
    @given(chain=_chains())
    @settings(max_examples=60, deadline=None)
    def test_same_boundaries_and_stage_floats(self, chain):
        prefixes, transfer_at = chain
        stages = _partition(prefixes, transfer_at)
        boundaries = reference_boundaries(prefixes, transfer_at)
        assert [(start, end) for start, end, _, _ in stages] == list(
            zip(boundaries, boundaries[1:]))
        last = len(prefixes) - 1
        for d, (start, end, compute_s, transfer_s) in enumerate(stages):
            assert compute_s == prefixes[d][end] - prefixes[d][start]
            assert transfer_s == (0.0 if d == last else transfer_at[end])

    @pytest.mark.parametrize("num_devices", [2, 3, 6])
    def test_every_cut_can_host_a_boundary(self, num_devices):
        """Zero compute and free transfers only at D - 1 consecutive cuts:
        the unique optimum cuts exactly there, wherever block edges fall."""
        n = 3 * _BLOCK + 8
        prefixes = [[0.0] * (n + 1)] * num_devices
        for first in range(1, n - num_devices + 2):
            cuts = list(range(first, first + num_devices - 1))
            transfer_at = [0.0 if k in cuts else 1.0 for k in range(n + 1)]
            stages = _partition(prefixes, transfer_at)
            assert [(start, end) for start, end, _, _ in stages] == list(
                zip([0, *cuts], [*cuts, n]))
