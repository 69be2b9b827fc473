"""The graph pass as one verifier over one set of built graphs.

Each zoo model is loaded once and its five transform outputs are built
once.  The derivation runs only on sound structure, so a malformed graph
yields findings, never an exception: not from ``verify_graph``, and not from
``repro check`` as CI runs it.
"""

import collections

import pytest

from repro import models
from repro.check import PASS_NAMES, graphs
from repro.cli import main
from tests.check.graph_cases import GRAPH_DEFECTS, recurrent_graph, rules_of, seeded


class TestOnePass:
    def test_pass_names(self):
        assert PASS_NAMES == ("graphs", "tables", "arch", "units", "effects")

    @pytest.mark.parametrize("name", ["ir", "shapes"])
    def test_former_pass_names_exit_2(self, name, capsys):
        assert main(["check", name]) == 2
        assert capsys.readouterr().err.startswith("error: unknown check pass")

    def test_each_model_is_loaded_and_transformed_once(self, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(models, "load_model")
        for name in ("fuse_graph", "prune_graph", "quantize_graph", "freeze_graph"):
            count(graphs, name)
        assert graphs.run(models=["CifarNet 32x32", "ResNet-18"]) == []
        assert calls == {"load_model": 2, "fuse_graph": 2, "prune_graph": 2,
                         "quantize_graph": 2, "freeze_graph": 4}


class TestFindingsNotTracebacks:
    @pytest.mark.parametrize("defect", list(GRAPH_DEFECTS))
    def test_seeded_defect_reports_its_rules(self, defect):
        # exact rule sets: no traceback, and no derivation finding (such as
        # a spurious SHAPE007 on a duplicate name) on unsound structure
        assert rules_of(graphs.verify_graph(seeded(defect))) == \
            GRAPH_DEFECTS[defect][1]

    def test_embedding_without_inputs_is_shape003(self):
        # structurally sound (IR001-IR005 hold), so the derivation runs,
        # and the symbolic-sequence seeding must not index a missing input
        graph = recurrent_graph()
        graph.op("embed").inputs = ()
        assert rules_of(graphs.verify_graph(graph)) == {"SHAPE003"}

    def test_strict_run_reports_a_non_dtype_annotation(self, monkeypatch,
                                                       capsys):
        load_model = models.load_model

        def corrupted(name):
            graph = load_model(name)
            if name == "CifarNet 32x32":
                graph.ops[1].act_dtype = "fp32"
            return graph

        monkeypatch.setattr(models, "load_model", corrupted)
        assert main(["check", "--strict"]) == 1
        report = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in report[:-1]] == ["IR005"]
