"""Experiment mechanics."""

from repro.core.experiment import Experiment
from repro.core.registry import Registry
from repro.core.result import ResultTable


def _make_registry() -> Registry[Experiment]:
    registry: Registry[Experiment] = Registry("experiment")

    def generator_a() -> ResultTable:
        table = ResultTable("A", ["v"])
        table.add_row("only", v=1)
        return table

    def generator_b() -> ResultTable:
        return ResultTable("B", ["v"])

    registry.register("expA", lambda: Experiment("expA", "Fig X", "demo", generator_a))
    registry.register("expB", lambda: Experiment("expB", "Fig Y", "demo", generator_b))
    return registry


class TestExperiment:
    def test_run_returns_generator_output(self):
        registry = _make_registry()
        table = registry.create("expA").run()
        assert table.title == "A"
        assert table.row("only")["v"] == 1

