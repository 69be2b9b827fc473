"""Per-framework software-stack bucket builders (Figure 5).

Maps engine quantities onto the function groups the paper's cProfile runs
surface: TensorFlow's ``base_layer`` / ``TF_SessionRunCallable`` family and
PyTorch's ``conv2d`` / ``_C._TensorBase.to()`` family.  Frameworks outside
Figure 5 get a generic breakdown with the same group vocabulary.
"""

from __future__ import annotations

from repro.core.summation import serial_sum
from repro.engine.executor import InferenceSession
from repro.graphs.ops import Conv2D, Conv3D, Dense, BatchNorm, Activation, DepthwiseConv2D
from repro.profiling.profiler import StackProfile

# How TensorFlow's one-time graph work splits across profile buckets.
_TF_SETUP_SPLIT = {
    "base_layer": 0.70,
    "_initialize_variable": 0.15,
    "TF_SessionMakeCallable": 0.08,
    "session.__init__": 0.07,
}
# PyTorch's dynamic construction splits between module init and weight init.
_PT_SETUP_SPLIT = {"model.__init__": 0.6, "randn": 0.4}


def profile_stack(session: InferenceSession, n_inferences: int) -> StackProfile:
    """Profile ``n_inferences`` runs the way the paper's cProfile pass does."""
    if n_inferences <= 0:
        raise ValueError(f"n_inferences must be positive, got {n_inferences}")
    framework_name = session.deployed.framework.name
    if framework_name in ("TensorFlow", "Keras", "TFLite"):
        return _tensorflow_stack(session, n_inferences)
    if framework_name == "PyTorch":
        return _pytorch_stack(session, n_inferences)
    return _generic_stack(session, n_inferences)


def _new_profile(session: InferenceSession, n_inferences: int) -> StackProfile:
    deployed = session.deployed
    return StackProfile(
        framework=deployed.framework.name,
        device=deployed.device.name,
        model=deployed.graph.name,
        n_inferences=n_inferences,
    )


def _tensorflow_stack(session: InferenceSession, n: int) -> StackProfile:
    profile = _new_profile(session, n)
    deployed = session.deployed
    profile.add("Library Loading", "one-time", deployed.library_load_s)
    setup = deployed.graph_setup_s + deployed.device_staging_s
    for bucket, share in _TF_SETUP_SPLIT.items():
        profile.add(bucket, "one-time", setup * share)
    profile.add(
        "layers & weights",
        "one-time",
        deployed.weight_load_s + deployed.transfer_setup_s,
    )
    run_time = session.latency_s * n
    profile.add("TF_SessionRunCallable", "per-inference", run_time, calls=n)
    return profile


def _pytorch_stack(session: InferenceSession, n: int) -> StackProfile:
    profile = _new_profile(session, n)
    deployed = session.deployed
    profile.add("<built-in import>", "one-time", deployed.library_load_s)
    for bucket, share in _PT_SETUP_SPLIT.items():
        extra = deployed.weight_load_s if bucket == "randn" else 0.0
        profile.add(bucket, "one-time", deployed.graph_setup_s * share + extra)
    staging = deployed.device_staging_s + deployed.transfer_setup_s
    if staging:
        profile.add("_C._TensorBase.to()", "one-time", staging)

    buckets: dict[str, float] = {}
    other = 0.0
    timings = session.plan.timings
    for timing in timings:
        op = timing.op
        if isinstance(op, (Conv2D, DepthwiseConv2D, Conv3D)):
            buckets["conv2d"] = buckets.get("conv2d", 0.0) + timing.roofline_s
        elif isinstance(op, Dense):
            buckets["linear"] = buckets.get("linear", 0.0) + timing.roofline_s
        elif isinstance(op, BatchNorm):
            buckets["batch_norm"] = buckets.get("batch_norm", 0.0) + timing.roofline_s
        elif isinstance(op, Activation):
            buckets["activation"] = buckets.get("activation", 0.0) + timing.roofline_s
        else:
            other += timing.roofline_s
    dispatch = serial_sum(t.dispatch_s for t in timings)
    forward = other + dispatch + session.plan.session_overhead_s + session.plan.input_transfer_s
    for bucket, per_inference in buckets.items():
        profile.add(bucket, "per-inference", per_inference * n, calls=n)
    profile.add("forward", "per-inference", forward * n, calls=n)
    return profile


def _generic_stack(session: InferenceSession, n: int) -> StackProfile:
    profile = _new_profile(session, n)
    deployed = session.deployed
    profile.add("library loading", "one-time", deployed.library_load_s)
    profile.add("model build", "one-time",
                deployed.graph_setup_s + deployed.device_staging_s)
    profile.add("weight load", "one-time",
                deployed.weight_load_s + deployed.transfer_setup_s)
    run_time = session.latency_s * n
    profile.add("inference", "per-inference", run_time, calls=n)
    return profile
