"""Result snapshots and run-to-run comparison."""

import json

import pytest

from repro.cli import main
from repro.harness.suite import (
    SNAPSHOT_VERSION,
    compare_results,
    export_results,
    load_results,
    save_results,
)

FAST_IDS = ["table6", "fig13"]


class TestExport:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return export_results(FAST_IDS)

    def test_structure(self, snapshot):
        assert set(snapshot["experiments"]) == set(FAST_IDS)
        table6 = snapshot["experiments"]["table6"]
        assert table6["paper_reference"].startswith("Table VI")
        assert table6["rows"]
        assert all("label" in row for row in table6["rows"])

    def test_json_safe(self, snapshot):
        json.dumps(snapshot)

    def test_save_and_load(self, tmp_path, snapshot):
        path = tmp_path / "results.json"
        save_results(path, FAST_IDS)
        loaded = load_results(path)
        assert loaded["experiments"].keys() == snapshot["experiments"].keys()

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"snapshot_version": 99, "experiments": {}}))
        with pytest.raises(ValueError, match="version"):
            load_results(path)


class TestCompare:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return export_results(FAST_IDS)

    def test_identical_snapshots_have_no_differences(self, snapshot):
        assert compare_results(snapshot, snapshot) == []

    def test_numeric_drift_within_tolerance_ignored(self, snapshot):
        import copy

        drifted = copy.deepcopy(snapshot)
        row = drifted["experiments"]["fig13"]["rows"][0]
        row["bare_s"] *= 1.005  # 0.5% drift, under the 1% tolerance
        assert compare_results(snapshot, drifted) == []

    def test_numeric_drift_beyond_tolerance_reported(self, snapshot):
        import copy

        drifted = copy.deepcopy(snapshot)
        row = drifted["experiments"]["fig13"]["rows"][0]
        row["bare_s"] *= 1.10
        differences = compare_results(snapshot, drifted)
        assert len(differences) == 1
        assert differences[0].column == "bare_s"
        assert "fig13" in differences[0].describe()

    def test_boolean_flips_always_reported(self, snapshot):
        import copy

        drifted = copy.deepcopy(snapshot)
        row = drifted["experiments"]["table6"]["rows"][0]
        row["fan"] = not row["fan"]
        differences = compare_results(snapshot, drifted)
        assert any(d.column == "fan" for d in differences)

    def test_missing_experiment_reported(self, snapshot):
        import copy

        partial = copy.deepcopy(snapshot)
        del partial["experiments"]["fig13"]
        differences = compare_results(snapshot, partial)
        assert any(d.experiment_id == "fig13" and d.column == "(presence)"
                   for d in differences)

    def test_missing_row_reported(self, snapshot):
        import copy

        partial = copy.deepcopy(snapshot)
        partial["experiments"]["table6"]["rows"].pop()
        differences = compare_results(snapshot, partial)
        assert any(d.column == "(presence)" for d in differences)


class TestCliVerbs:
    def test_export_and_diff_round_trip(self, tmp_path, capsys):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        assert main(["export", str(path_a), "table6"]) == 0
        assert main(["export", str(path_b), "table6"]) == 0
        capsys.readouterr()
        assert main(["diff", str(path_a), str(path_b)]) == 0
        assert "0 differing cells" in capsys.readouterr().out

    def test_export_to_unwritable_path_is_a_usage_error(self, tmp_path,
                                                        capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["export", str(path), "table6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not path.exists()

    def test_diff_detects_change(self, tmp_path, capsys):
        path_a = tmp_path / "a.json"
        main(["export", str(path_a), "table6"])
        payload = json.loads(path_a.read_text())
        payload["experiments"]["table6"]["rows"][0]["idle_surface_c"] += 10
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diff", str(path_a), str(path_b)]) == 1
        assert "idle_surface_c" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    None,                                        # missing file
    "not json at all",                           # malformed JSON
    '{"snapshot_version": 1, "experiments": {',  # truncated JSON
    '{"experiments": {}}',                       # no snapshot_version
    '{"snapshot_version": 1, "experiments": {"fig07": {"rows": "x"}}}',
], ids=["missing", "malformed", "truncated", "unversioned", "string-rows"])
def test_diff_of_an_unreadable_snapshot_exits_2(content, tmp_path, capsys):
    """A usage error, never a traceback; exit 1 keeps meaning "differ"."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"snapshot_version": SNAPSHOT_VERSION,
                                "experiments": {}}))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    assert main(["diff", str(good), str(bad)]) == 2
    assert main(["diff", str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
