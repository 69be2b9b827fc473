#!/usr/bin/env python3
"""Scenario: a swarm of inexpensive robots sharing one DNN.

The paper's introduction motivates edge inference with "inexpensive robots"
and its related work covers the authors' collaborative distribution of DNNs
across IoT devices.  This example asks two questions for a Raspberry
Pi-based robot team:

1. Offload or not?  A Neurosurgeon-style split against a base-station GPU
   under different radio conditions.
2. Collaborate!  When the base station is unreachable, pipeline the model
   across teammates and see how throughput scales.

Run:  python examples/collaborative_robots.py [model]
"""

import sys

import numpy as np

from repro import load_model
from repro.distribution import cut_columns, load_link, lower_pipeline
from repro.runtime import Scenario, default_runner


def main(model_name: str = "TinyYolo") -> None:
    graph = load_model(model_name)
    print(f"Model: {graph.summary()}")
    print()

    runner = default_runner()
    robot = Scenario(model_name, "Raspberry Pi 3B", "TensorFlow")
    edge = runner.session(robot)
    remote = runner.session(Scenario(model_name, "GTX Titan X", "PyTorch"))

    # Part 1: offloading decision against a base-station GPU.  Both
    # sessions' plans are priced once per link, every cut at once.
    print("Offloading decision (robot = RPi 3B, base station = GTX Titan X):")
    for link_name in ("ethernet", "wifi", "wifi-congested", "lte", "bluetooth"):
        columns = cut_columns(edge.plan, remote.plan,
                              edge.deployed.graph.table.cut_bytes,
                              load_link(link_name))
        best = columns.best_index()
        total_s = columns.total_s
        where = (f"after {columns.ops[best - 1].name!r}" if best
                 else "at the input")
        print(f"  {link_name:15s}: cut {where}: "
              f"edge {columns.edge_s[best] * 1e3:.1f} ms + link "
              f"{columns.transfer_s[best] * 1e3:.1f} ms + remote "
              f"{columns.remote_s[best] * 1e3:.1f} ms = "
              f"{total_s[best] * 1e3:.1f} ms")
        print(f"  {'':15s}  (fully local would take {total_s[-1]:.2f} s, "
              f"speedup {total_s[-1] / total_s[best]:.1f}x)")
    print()

    # Part 2: no base station — pipeline across teammates.  One robot
    # runs every op in sequence; a team splits the model into stages.
    print("Collaborative pipeline across robot teammates (WiFi between them):")
    alone_s = float(np.cumsum(edge.plan.op_latency_s)[-1])
    for team_size in (1, 2, 3, 4, 6):
        if team_size == 1:
            bottleneck_s = latency_s = alone_s
        else:
            team = lower_pipeline([robot] * team_size, "wifi", runner=runner)
            bottleneck_s, latency_s = team.bottleneck_s, team.latency_s
        print(f"  {team_size} robot(s): {1.0 / bottleneck_s:6.2f} fps "
              f"({alone_s / bottleneck_s:4.2f}x), "
              f"bottleneck stage {bottleneck_s * 1e3:6.0f} ms, "
              f"per-frame latency {latency_s * 1e3:6.0f} ms")
    print()
    print("Scaling saturates when one indivisible layer owns the bottleneck")
    print("stage — the same sub-linear behaviour the collaborative-IoT papers")
    print("report on physical Pi clusters.")


if __name__ == "__main__":
    main(*sys.argv[1:2])
