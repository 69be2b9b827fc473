"""Markdown/CSV export of result tables."""

import csv
import io

import pytest

from repro.core.result import ResultTable
from repro.harness.report import render_csv, render_markdown


def _table() -> ResultTable:
    table = ResultTable("Demo", ["measured", "paper"], caption="cap")
    table.add_row("row,with,commas", measured=1.5, paper=None)
    table.add_row("plain", measured=2.0, paper=3.0)
    table.add_note("a note")
    return table


class TestMarkdown:
    def test_structure(self):
        text = render_markdown(_table())
        lines = text.splitlines()
        assert lines[0] == "| | measured | paper |"
        assert lines[1] == "|---|---|---|"
        assert "| plain | 2 | 3 |" in lines

    def test_none_rendered_as_dash(self):
        assert "| row,with,commas | 1.5 | - |" in render_markdown(_table())

    def test_caption_and_notes(self):
        text = render_markdown(_table())
        assert "*cap*" in text
        assert "> a note" in text

    def test_experiment_table_renders(self):
        from repro.harness import run_experiment

        text = render_markdown(run_experiment("table6"))
        assert text.count("|---") > 0
        assert "Raspberry Pi 3B" in text


class TestCsv:
    def test_round_trips_through_csv_reader(self):
        rows = list(csv.reader(io.StringIO(render_csv(_table()))))
        assert rows[0] == ["label", "measured", "paper"]
        assert rows[1] == ["row,with,commas", "1.5", ""]
        assert rows[2] == ["plain", "2.0", "3.0"]

    def test_commas_in_labels_escaped(self):
        rows = list(csv.reader(io.StringIO(render_csv(_table()))))
        assert rows[1][0] == "row,with,commas"

    @pytest.mark.parametrize("experiment_id", ["fig06", "fig12", "fig14"])
    def test_float_cells_read_back_exactly(self, experiment_id):
        # One experiment per source of the old runtime unit tags: session
        # latencies (fig06), power draws (fig12), temperatures (fig14).
        from repro.harness import run_experiment

        table = run_experiment(experiment_id)
        rows = list(csv.reader(io.StringIO(render_csv(table))))[1:]
        cells = [(cell, row.get(column))
                 for row, cells in zip(table.rows, rows)
                 for column, cell in zip(table.columns, cells[1:])
                 if isinstance(row.get(column), float)]
        assert cells
        assert [cell for cell, value in cells
                if cell != repr(float(value))] == []
