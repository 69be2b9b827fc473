"""The ``repro check`` CLI verb: exit codes, formats, pass selection."""

import json

import pytest

from repro.cli import main


class TestCheckVerb:
    def test_default_run_is_clean(self, capsys):
        assert main(["check"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_strict_json_run(self, capsys):
        assert main(["check", "--strict", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["findings"] == []

    def test_single_pass_selection(self, capsys):
        assert main(["check", "arch"]) == 0
        capsys.readouterr()

    def test_unknown_pass_exits_2(self, capsys):
        assert main(["check", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown check pass" in err
        assert "bogus" in err

    def test_ignore_flag_is_accepted(self, capsys):
        assert main(["check", "tables", "--ignore", "TAB001"]) == 0
        capsys.readouterr()

    def test_units_pass_selection_is_clean(self, capsys):
        assert main(["check", "units", "--strict"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_github_format_emits_annotations_or_summary(self, capsys):
        assert main(["check", "units", "--strict", "--format", "github"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.splitlines()[-1] == "no findings"

    def test_graphs_pass_selection_is_clean(self, capsys):
        assert main(["check", "graphs", "--strict"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_stats_prints_per_pass_timings_to_stderr(self, capsys):
        assert main(["check", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "no findings" in captured.out
        lines = captured.err.splitlines()
        names = [line[2:line.index(":")] for line in lines]
        # one line per pass, in report order, the worker's half included
        assert names == ["graphs", "tables", "parse", "arch", "units",
                         "effects", "total", "wall"]
        assert all(line.endswith(" ms") for line in lines)
        ms = {name: float(line.split(": ")[1].removesuffix(" ms"))
              for name, line in zip(names, lines)}
        assert ms["total"] == pytest.approx(
            sum(ms[name] for name in names[:-2]), abs=0.5)
        assert 0 < ms["wall"]

    def test_stats_covers_only_selected_passes(self, capsys):
        assert main(["check", "graphs", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "# graphs:" in err
        assert "# effects:" not in err
        assert "# parse:" not in err  # no source pass, nothing parsed
        assert "# wall:" in err

    def test_stats_times_the_shared_parse_apart_from_the_source_pass(
            self, capsys):
        assert main(["check", "units", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "# parse:" in err
        assert "# units:" in err
