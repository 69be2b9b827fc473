"""The ``repro fleet`` CLI verb."""

import json

import pytest

from repro.cli import main


class TestFleetVerb:
    def test_json_report_on_stdout(self, capsys):
        assert main(["fleet", "--requests", "3000", "--seed", "5",
                     "--epochs", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 3000
        assert payload["seed"] == 5
        assert (payload["completed"] + payload["dropped"]
                + payload["rejected"]) == 3000
        assert len(payload["pools"]) == 3  # the default Nano/TX2/Pi fleet

    def test_text_format(self, capsys):
        assert main(["fleet", "--requests", "500", "--format", "text",
                     "--epochs", "32"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 500 requests" in out
        assert "Jetson Nano" in out

    def test_custom_pools_policy_and_output_file(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        argv = ["fleet", "--requests", "800", "--epochs", "32",
                "--pool", "2x Jetson Nano:TensorRT:4",
                "--pool", "1x Jetson TX2:PyTorch",
                "--policy", "energy-aware", "--arrivals", "diurnal",
                "--output", str(path)]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert payload["policy"] == "energy-aware"
        assert [pool["replicas"] for pool in payload["pools"]] == [2, 1]
        assert payload["pools"][0]["effective_max_batch"] == 4

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["fleet", "--requests", "2000", "--seed", "3",
                         "--epochs", "64", "--arrivals", "bursty",
                         "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_admission_and_autoscale_flags(self, capsys):
        argv = ["fleet", "--requests", "2000", "--epochs", "64",
                "--pool", "4x Jetson Nano:TensorRT", "--rate", "300",
                "--admit-limit", "4", "--autoscale"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rejected"] > 0

    def test_bad_pool_spec_is_a_usage_error(self, capsys):
        assert main(["fleet", "--requests", "10",
                     "--pool", "Jetson Nano+TensorRT"]) == 2
        assert "bad pool spec" in capsys.readouterr().err

    def test_undeployable_pool_reports_structured_error(self, capsys):
        assert main(["fleet", "--requests", "10",
                     "--pool", "1x EdgeTPU:TFLite"]) == 2
        assert "cannot deploy" in capsys.readouterr().err

    def test_requests_and_horizon_are_exclusive(self, capsys):
        assert main(["fleet", "--requests", "10", "--horizon", "5"]) == 2
        assert main(["fleet"]) == 2

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert main(["fleet", "--requests", "200", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err

    def test_pool_on_a_device_without_a_thermal_spec(self, capsys):
        assert main(["fleet", "--pool", "1x Titan Xp:PyTorch",
                     "--requests", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 100
        assert payload["shutdown_events"] == payload["fan_events"] == 0

    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '{"frontier": [{"deployment": {"link": null, "stages": []}}]}',
        '{"frontier": "none"}',
        '{"frontier": [{"deployment": {"kind": "single", "link": null,'
        ' "stages": [{"op_names": null, "scenario": "x"}]}}]}',
    ], ids=["list", "no-kind", "string-frontier", "string-scenario"])
    def test_malformed_placement_file_is_a_usage_error(self, content,
                                                       tmp_path, capsys):
        path = tmp_path / "frontier.json"
        path.write_text(content)
        assert main(["fleet", "--requests", "10",
                     "--placement", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err

    def test_missing_placement_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["fleet", "--requests", "10",
                     "--placement", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing.json" in err


@pytest.mark.parametrize("flags", [
    ["--rate", "-5"],
    ["--rate", "nan"],
    ["--rate", "inf"],
    ["--rate", "0"],
    ["--requests", "-3"],
    ["--horizon", "-1"],
    ["--horizon", "nan"],
    ["--horizon", "inf"],
    ["--arrivals", "bursty", "--burst-size", "0"],
    ["--arrivals", "diurnal", "--period", "-1"],
    ["--arrivals", "diurnal", "--period", "0"],
    ["--admit-limit", "0"],
], ids=" ".join)
def test_hostile_flags_exit_2_without_a_traceback(flags, capsys):
    argv = ["fleet", "--epochs", "8", *flags]
    if "--requests" not in flags and "--horizon" not in flags:
        argv += ["--requests", "50"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
