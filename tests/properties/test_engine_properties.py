"""Property-based tests of the roofline engine (hypothesis).

Op timings come from the production pricing path (``lower_plan_specs``),
which must match the scalar reference formula bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.roofline import RooflineInputs
from repro.graphs import ops as O
from repro.graphs.tensor import TensorShape
from tests.engine.reference import price, time_one, time_op

positive = st.floats(min_value=1e6, max_value=1e14, allow_nan=False)


@st.composite
def convs(draw):
    channels = draw(st.integers(1, 32))
    size = draw(st.sampled_from([4, 8, 16, 32]))
    out_channels = draw(st.integers(1, 64))
    kernel = draw(st.sampled_from([1, 3, 5]))
    source = O.Input("in", TensorShape(channels, size, size))
    return O.Conv2D("c", [source], out_channels, kernel)


@st.composite
def any_op(draw):
    channels = draw(st.integers(1, 16))
    size = draw(st.sampled_from([1, 4, 7, 16]))
    source = O.Input("in", TensorShape(channels, size, size))
    kind = draw(st.sampled_from(["conv", "depthwise", "dense", "pool", "flatten",
                                 "relu", "add"]))
    if kind == "conv":
        op = O.Conv2D("c", [source], draw(st.integers(1, 32)),
                      draw(st.sampled_from([1, 3, 5])),
                      use_bias=draw(st.booleans()))
    elif kind == "depthwise":
        op = O.DepthwiseConv2D("d", [source], draw(st.sampled_from([1, 3])))
    elif kind == "dense":
        op = O.Dense("fc", [O.Flatten("f", [source])], draw(st.integers(1, 64)))
    elif kind == "pool":
        op = O.Pool2D("p", [source], 1)
    elif kind == "flatten":
        op = O.Flatten("f", [source])
    elif kind == "relu":
        op = O.Activation("a", [source])
    else:
        op = O.Add("s", [source, O.Input("in2", TensorShape(channels, size, size))])
    op.weight_sparsity = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    return op


@st.composite
def rooflines(draw):
    return RooflineInputs(
        peak_macs_per_s=draw(positive),
        memory_bandwidth_bytes_per_s=draw(positive),
        weight_bandwidth_bytes_per_s=draw(positive),
        dispatch_overhead_s=draw(st.floats(0, 1e-3)),
    )


class TestRooflineProperties:
    @given(op=convs(), inputs=rooflines(), efficiency=st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_latency_positive_and_decomposed(self, op, inputs, efficiency):
        timing = time_one(op, inputs, efficiency)
        assert timing.latency_s > 0
        assert timing.latency_s == max(timing.compute_s, timing.memory_s) + timing.dispatch_s

    @given(op=convs(), inputs=rooflines(),
           lo=st.floats(0.01, 0.5), hi=st.floats(0.5, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_efficiency(self, op, inputs, lo, hi):
        slow = time_one(op, inputs, lo)
        fast = time_one(op, inputs, hi)
        assert fast.latency_s <= slow.latency_s

    @given(op=convs(), inputs=rooflines(), efficiency=st.floats(0.01, 1.0),
           sparsity=st.floats(0.0, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_sparsity_never_hurts(self, op, inputs, efficiency, sparsity):
        op.weight_sparsity = sparsity
        exploited = time_one(op, inputs, efficiency, exploit_sparsity=True)
        ignored = time_one(op, inputs, efficiency, exploit_sparsity=False)
        assert exploited.latency_s <= ignored.latency_s

    @given(op=convs(), inputs=rooflines(), efficiency=st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_bound_label_matches_terms(self, op, inputs, efficiency):
        timing = time_one(op, inputs, efficiency)
        if timing.bound == "compute":
            assert timing.compute_s >= timing.memory_s
        else:
            assert timing.memory_s > timing.compute_s

    @given(ops=st.lists(any_op(), min_size=1, max_size=6), inputs=rooflines(),
           data=st.data(), batch_size=st.integers(1, 64),
           exploit_sparsity=st.booleans(), include_memory_term=st.booleans(),
           per_op_overhead_s=st.floats(0, 1e-4))
    @settings(max_examples=150, deadline=None)
    def test_lowering_matches_scalar_reference_bit_for_bit(
            self, ops, inputs, data, batch_size, exploit_sparsity,
            include_memory_term, per_op_overhead_s):
        efficiencies = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(ops),
                                          max_size=len(ops)))
        kwargs = dict(exploit_sparsity=exploit_sparsity,
                      per_op_overhead_s=per_op_overhead_s, batch_size=batch_size,
                      include_memory_term=include_memory_term)
        lowered = price(ops, inputs, efficiencies, **kwargs)
        for op, efficiency, timing in zip(ops, efficiencies, lowered):
            reference = time_op(op, inputs, efficiency, **kwargs)
            assert timing.op is op
            # Exact equality: the same float64 operations in the same order.
            assert timing.compute_s == reference.compute_s
            assert timing.memory_s == reference.memory_s
            assert timing.dispatch_s == reference.dispatch_s
            assert timing.bound == reference.bound


class TestThermalProperties:
    @given(
        power=st.floats(0.1, 50.0),
        resistance=st.floats(1.0, 30.0),
        capacity=st.floats(1.0, 100.0),
        dt=st.floats(0.1, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_overshoots_asymptote(self, power, resistance, capacity, dt):
        from repro.hardware.thermal import ThermalSimulator, ThermalSpec

        spec = ThermalSpec(r_passive_c_per_w=resistance, r_active_c_per_w=resistance,
                           c_j_per_c=capacity)
        sim = ThermalSimulator(spec)
        target = spec.steady_state_c(power, sim.ambient_c)
        for _ in range(50):
            sim.step(power, dt)
            assert sim.ambient_c - 1e-6 <= sim.temperature_c <= target + 1e-6

    @given(
        power=st.floats(0.1, 50.0),
        resistance=st.floats(1.0, 30.0),
        capacity=st.floats(1.0, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_energy_conservation_at_steady_state(self, power, resistance, capacity):
        """At equilibrium, heat out = power in: (T - Tamb)/R == P."""
        from repro.hardware.thermal import ThermalSimulator, ThermalSpec

        spec = ThermalSpec(r_passive_c_per_w=resistance, r_active_c_per_w=resistance,
                           c_j_per_c=capacity)
        sim = ThermalSimulator(spec)
        sim.step(power, 1e9)
        heat_out = (sim.temperature_c - sim.ambient_c) / resistance
        assert abs(heat_out - power) < 1e-6


class TestMeasurementProperties:
    @given(power=st.floats(0.1, 300.0), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_analyzer_accuracy_always_held(self, power, seed):
        from repro.measurement.power_meter import PowerAnalyzer

        meter = PowerAnalyzer(seed=seed)
        sample = meter.sample(power)
        assert abs(sample.power_w - power) <= meter.accuracy_w + 1e-12

    @given(power=st.floats(0.1, 20.0), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_multimeter_error_bounded(self, power, seed):
        from repro.measurement.power_meter import USBMultimeter

        sample = USBMultimeter(seed=seed).sample(power)
        # Compound worst case of the voltage and current terms.
        current = power / 5.0
        bound = (5.0 * 0.0005 + 0.02) * (current * 1.001 + 0.004) + \
                (current * 0.001 + 0.004) * 5.0
        assert abs(sample.power_w - power) <= bound + 1e-9
