"""Collaborative pipeline partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import load_link, partition_pipeline
from repro.distribution.pipeline import _BLOCK, _partition
from repro.engine import InferenceSession
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model
from tests.distribution.reference import reference_boundaries


def _deployed(model="TinyYolo", device="Raspberry Pi 3B", framework="TensorFlow"):
    return load_framework(framework).deploy(load_model(model), load_device(device))


class TestPartition:
    def test_single_device_is_the_whole_model(self):
        deployed = _deployed()
        plan = partition_pipeline(deployed, 1, load_link("wifi"))
        assert len(plan.stages) == 1
        assert plan.stages[0].outgoing_transfer_s == 0.0
        session_free = sum(
            t.latency_s for t in InferenceSession(deployed).plan.timings)
        assert plan.stages[0].compute_s == pytest.approx(session_free)

    def test_stages_cover_all_ops_contiguously(self):
        deployed = _deployed()
        plan = partition_pipeline(deployed, 3, load_link("wifi"))
        flattened = [name for stage in plan.stages for name in stage.op_names]
        assert flattened == [op.name for op in deployed.graph.schedulable_ops()]

    def test_throughput_improves_with_devices(self):
        deployed = _deployed()
        fps = [partition_pipeline(deployed, n, load_link("wifi")).throughput_fps
               for n in (1, 2, 3)]
        assert fps[1] > fps[0]
        assert fps[2] >= fps[1]

    def test_scaling_saturates_at_the_largest_op(self):
        """An indivisible op bounds the bottleneck no matter how many
        devices join — the sublinear scaling the collaborative papers see."""
        deployed = _deployed()
        timings = InferenceSession(deployed).plan.timings
        largest_op = max(t.latency_s for t in timings)
        plan = partition_pipeline(deployed, 8, load_link("wifi"))
        assert plan.bottleneck_s >= largest_op

    def test_latency_grows_while_throughput_improves(self):
        deployed = _deployed()
        one = partition_pipeline(deployed, 1, load_link("wifi"))
        three = partition_pipeline(deployed, 3, load_link("wifi"))
        assert three.throughput_fps > one.throughput_fps
        assert three.pipeline_latency_s > one.pipeline_latency_s

    def test_slow_links_penalize_deep_pipelines(self):
        deployed = _deployed()
        fast = partition_pipeline(deployed, 4, load_link("ethernet"))
        slow = partition_pipeline(deployed, 4, load_link("bluetooth"))
        assert slow.bottleneck_s > fast.bottleneck_s

    def test_invalid_device_counts(self):
        deployed = _deployed()
        with pytest.raises(ValueError):
            partition_pipeline(deployed, 0, load_link("wifi"))
        with pytest.raises(ValueError):
            partition_pipeline(deployed, 10_000, load_link("wifi"))

    def test_describe(self):
        plan = partition_pipeline(_deployed(), 2, load_link("wifi"))
        text = plan.describe()
        assert "2-stage pipeline" in text
        assert "device 0" in text and "device 1" in text


#: Few distinct values make exact ties (equal stages, equal candidates)
#: common; zeros make whole empty-cost runs.
_TIMES = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                   st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


def _prefix(values):
    prefix = [0.0]
    for value in values:
        prefix.append(prefix[-1] + value)
    return prefix


def _boundaries(plan):
    consumed = [0]
    for stage in plan.stages:
        consumed.append(consumed[-1] + len(stage.op_names))
    return consumed


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
        n = len(transfer_at) - 1
        plan = _partition([f"op{i}" for i in range(n)], prefixes,
                          transfer_at)
        boundaries = reference_boundaries(prefixes, transfer_at)
        assert _boundaries(plan) == boundaries
        last = len(prefixes) - 1
        for d, stage in enumerate(plan.stages):
            start, end = boundaries[d], boundaries[d + 1]
            assert stage.compute_s == prefixes[d][end] - prefixes[d][start]
            assert stage.outgoing_transfer_s == (
                0.0 if d == last else transfer_at[end])

    @pytest.mark.parametrize("num_devices", [2, 3, 6])
    def test_every_cut_can_host_a_boundary(self, num_devices):
        """Zero compute and free transfers only at D - 1 consecutive cuts:
        the unique optimum cuts exactly there, wherever block edges fall."""
        n = 3 * _BLOCK + 8
        names = [f"op{i}" for i in range(n)]
        prefixes = [[0.0] * (n + 1)] * num_devices
        for first in range(1, n - num_devices + 2):
            cuts = list(range(first, first + num_devices - 1))
            transfer_at = [0.0 if k in cuts else 1.0 for k in range(n + 1)]
            plan = _partition(names, prefixes, transfer_at)
            assert _boundaries(plan) == [0, *cuts, n]
