"""`run_checks` in two halves: the graph half (``graphs``, ``tables``) in
one forked worker while the caller parses the package and runs the source
half (``arch``, ``units``, ``effects``).

The findings equal what the passes return when run one at a time in the
caller, finding for finding and in selection order; a worker's exception
comes back with its type; no process outlives the call; a one-half
selection forks nothing; and the parse pauses the cyclic collector
without losing its state.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import textwrap
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.check import PASS_NAMES, PASSES, astutil, run_checks
from repro.engine import calibration

SOURCE_PASSES = ("arch", "units", "effects")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker needs the fork start method")

#: one module breaking an arch rule (ARCH001) and a units rule (UNIT001).
SEEDED_SOURCE = textwrap.dedent("""
    from repro.engine.executor import InferenceSession

    def price(deployed):
        return InferenceSession(deployed).latency_s

    def total_ms(latency_ms, overhead_s):
        total_ms = latency_ms + overhead_s
        return total_ms
""")


def one_at_a_time(selected, modules):
    """What the passes return when run one at a time in the caller."""
    findings = []
    for name in selected:
        if name in SOURCE_PASSES:
            findings += PASSES[name](modules=modules)
        else:
            findings += PASSES[name]()
    return findings


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The number of processes forked while the test runs."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def seeded(monkeypatch):
    """One defect per half: an anchor naming an unknown framework (found
    by ``tables`` in the worker, which inherits the patch) and a package
    made of :data:`SEEDED_SOURCE` alone (parsed by the caller)."""
    monkeypatch.setitem(calibration.ANCHORS, ("NoSuchFramework", "Jetson TX2"),
                        ("ResNet-18", 0.01, "seeded"))
    modules = [astutil.load_source(SEEDED_SOURCE,
                                   "src/repro/analysis/seeded.py")]
    monkeypatch.setattr(astutil, "load_package", lambda root=None: modules)
    return modules


@needs_fork
class TestTwoHalves:
    def test_real_tree_equals_the_passes_one_at_a_time(self, two_cpus, forks):
        timings = {}
        findings = run_checks(timings=timings)
        assert len(forks) == 1
        assert findings == one_at_a_time(PASS_NAMES, astutil.load_package())
        assert list(timings) == ["graphs", "tables", "parse", "arch", "units",
                                 "effects"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("selected", [
        ("tables", "arch", "units"),
        ("units", "tables", "arch"),
        ("arch", "effects", "tables"),
    ])
    def test_seeded_defects_in_selection_order(self, two_cpus, forks, seeded,
                                               selected):
        timings = {}
        findings = run_checks(list(selected), timings=timings)
        assert len(forks) == 1
        assert findings == one_at_a_time(selected, seeded)
        assert {"TAB008", "ARCH001"} <= {finding.rule for finding in findings}
        first_source = next(name for name in selected if name in SOURCE_PASSES)
        expected = list(selected)
        expected.insert(expected.index(first_source), "parse")
        assert list(timings) == expected

    def test_ignore_suppresses_findings_from_both_halves(self, two_cpus, seeded):
        selected = ["tables", "arch", "units"]
        findings = run_checks(selected, ignore=("tab008", "ARCH001"))
        assert findings == [
            finding for finding in one_at_a_time(selected, seeded)
            if finding.rule not in ("TAB008", "ARCH001")]
        assert "UNIT001" in {finding.rule for finding in findings}

    def test_worker_exception_is_raised_with_its_type(self, two_cpus, forks,
                                                      seeded, monkeypatch):
        def broken():
            raise LookupError("seeded worker failure")

        monkeypatch.setitem(PASSES, "tables", broken)
        with pytest.raises(LookupError, match="seeded worker failure") as raised:
            run_checks(["tables", "arch"])
        assert len(forks) == 1
        assert "broken" in str(raised.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_caller_exception_joins_the_worker(self, two_cpus, forks, seeded,
                                               monkeypatch):
        def broken(modules=None):
            raise KeyError("seeded caller failure")

        monkeypatch.setitem(PASSES, "arch", broken)
        with pytest.raises(KeyError, match="seeded caller failure"):
            run_checks(["graphs", "arch"])
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_worker_dying_without_reporting_is_an_error(self, two_cpus, seeded,
                                                        monkeypatch):
        monkeypatch.setitem(PASSES, "tables", lambda: os._exit(3))
        with pytest.raises(BrokenProcessPool):
            run_checks(["tables", "arch"])
        assert multiprocessing.active_children() == []


class TestOneProcess:
    @pytest.mark.parametrize("selected", [["units"], ["graphs", "tables"]])
    def test_one_half_starts_no_worker(self, two_cpus, forks, seeded, selected):
        assert run_checks(selected) == one_at_a_time(selected, seeded)
        assert forks == []

    def test_one_cpu_runs_both_halves_in_the_caller(self, forks, seeded,
                                                    monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        timings = {}
        selected = ["units", "tables", "arch"]
        assert run_checks(selected, timings=timings) == one_at_a_time(
            selected, seeded)
        assert forks == []
        assert list(timings) == ["parse", "units", "tables", "arch"]


class TestParseWithTheCollectorPaused:
    @pytest.fixture
    def package(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        return tmp_path

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_previous_state_restored(self, package, collector, enabled,
                                     monkeypatch):
        seen = []
        load_source = astutil.load_source

        def recording(source, path):
            seen.append(gc.isenabled())
            return load_source(source, path)

        monkeypatch.setattr(astutil, "load_source", recording)
        (gc.enable if enabled else gc.disable)()
        modules = astutil.load_package(package)
        assert len(modules) == 1
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_a_file_fails_to_parse(self, package, collector,
                                                 enabled):
        (package / "zz_broken.py").write_text("def broken(:\n")
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(SyntaxError):
            astutil.load_package(package)
        assert gc.isenabled() is enabled
