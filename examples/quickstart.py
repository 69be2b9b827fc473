#!/usr/bin/env python3
"""Quickstart: deploy one model on one device and read every metric.

Mirrors the paper's basic workflow (Section V): deploy, time the inference
loop, measure energy, and inspect what the deployment actually did.

Run:  python examples/quickstart.py [model] [device] [framework]
"""

import sys

from repro import InferenceSession, load_device, load_framework, load_model
from repro.measurement import InferenceTimer
from repro.measurement.energy import active_power_w, measure_energy_per_inference


def main(model_name: str = "ResNet-18", device_name: str = "Jetson Nano",
         framework_name: str = "TensorRT") -> None:
    model = load_model(model_name)
    device = load_device(device_name)
    framework = load_framework(framework_name)

    print(f"Model:     {model.summary()}")
    print(f"Device:    {device.name} ({device.category.value}), "
          f"{device.memory.describe()}")
    print(f"Framework: {framework.name}")
    print()

    deployed = framework.deploy(model, device)
    print(f"Deployment: {deployed.describe()}")
    for note in deployed.notes:
        print(f"  note: {note}")

    session = InferenceSession(deployed)
    init_s, timing = InferenceTimer(seed=0).measure_with_init(session)
    energy = measure_energy_per_inference(session)

    print()
    print(f"One-time setup:       {init_s:8.2f} s  (excluded from the loop)")
    print(f"Time per inference:   {timing.value * 1e3:8.1f} ms  "
          f"(median of {timing.samples} runs, sd {timing.stddev * 1e3:.2f} ms)")
    print(f"Active power:         {active_power_w(session):8.2f} W")
    print(f"Energy per inference: {energy.value * 1e3:8.1f} mJ")
    print(f"Compute utilization:  {session.utilization:8.1%}")
    print()
    print("Latency decomposition:")
    plan = session.plan
    print(f"  compute  {plan.compute_s * 1e3:8.2f} ms "
          f"({plan.bound_fraction('compute'):.0%} of roofline time compute-bound)")
    print(f"  memory   {plan.memory_s * 1e3:8.2f} ms")
    print(f"  dispatch {plan.dispatch_s * 1e3:8.2f} ms over "
          f"{len(plan.ops)} kernels")


if __name__ == "__main__":
    main(*sys.argv[1:4])
