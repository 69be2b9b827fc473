"""Execution timelines and per-layer reports.

Turns an :class:`InferenceSession`'s plan into artifacts an engineer would
pull from a real profiler: a per-layer latency table (the drill-down behind
Figure 5's aggregates) and a Chrome ``chrome://tracing`` / Perfetto JSON
trace of one inference.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.result import ResultTable
from repro.core.summation import serial_sum
from repro.engine.executor import InferenceSession


def layer_table(session: InferenceSession, top: int | None = None) -> ResultTable:
    """Per-op latency decomposition, slowest first.

    Args:
        session: an executed plan.
        top: keep only the N slowest ops (None = all).
    """
    deployed = session.deployed
    table = ResultTable(
        f"Per-layer latency: {deployed.describe()}",
        ["type", "latency_us", "compute_us", "memory_us", "bound", "share"],
        caption="share = fraction of the summed per-op latency.",
    )
    timings = session.plan.timings
    total = serial_sum(t.latency_s for t in timings) or 1.0
    timings.sort(key=lambda t: t.latency_s, reverse=True)
    for timing in timings[: top or len(timings)]:
        table.add_row(
            timing.op.name,
            type=type(timing.op).__name__,
            latency_us=timing.latency_s * 1e6,
            compute_us=timing.compute_s * 1e6,
            memory_us=timing.memory_s * 1e6,
            bound=timing.bound,
            share=timing.latency_s / total,
        )
    return table


def chrome_trace(session: InferenceSession) -> dict:
    """One inference as a Chrome trace-event JSON object.

    Ops execute back-to-back on a single lane ("tid" 1); the session
    overhead and input transfer appear as their own slices.  Load the
    result in chrome://tracing or Perfetto.
    """
    deployed = session.deployed
    events = []
    cursor_us = 0.0

    def slice_event(name: str, duration_s: float, category: str, args: dict | None = None):
        nonlocal cursor_us
        duration_us = duration_s * 1e6
        events.append({
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": round(cursor_us, 3),
            "dur": round(duration_us, 3),
            "pid": 1,
            "tid": 1,
            "args": args or {},
        })
        cursor_us += duration_us

    if session.plan.session_overhead_s:
        slice_event("session overhead", session.plan.session_overhead_s, "framework")
    if session.plan.input_transfer_s:
        slice_event("input transfer", session.plan.input_transfer_s, "transfer")
    for timing in session.plan.timings:
        slice_event(
            timing.op.name,
            timing.latency_s,
            timing.op.category.value,
            args={
                "type": type(timing.op).__name__,
                "bound": timing.bound,
                "compute_us": round(timing.compute_s * 1e6, 3),
                "memory_us": round(timing.memory_s * 1e6, 3),
                "macs": timing.op.macs,
            },
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "model": deployed.graph.name,
            "device": deployed.device.name,
            "framework": deployed.framework.name,
            "latency_ms": round(session.latency_s * 1e3, 3),
        },
    }


def save_chrome_trace(session: InferenceSession, path: str | Path) -> None:
    """Write the Chrome trace JSON to ``path``."""
    Path(path).write_text(json.dumps(chrome_trace(session)))
