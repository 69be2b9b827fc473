"""The ``repro place`` verb and ``repro fleet --placement`` hand-off."""

import json

import pytest

from repro.cli import main

PLACE_ARGV = ["place", "MobileNet-v2", "--device", "Raspberry Pi 3B",
              "--link", "lan", "--min-rps", "2"]


class TestPlaceVerb:
    def test_text_frontier_on_stdout(self, capsys):
        assert main(PLACE_ARGV) == 0
        out = capsys.readouterr().out
        assert "placement frontier for MobileNet-v2 over lan" in out
        assert "pipeline x2" in out

    def test_json_output_file(self, tmp_path, capsys):
        path = tmp_path / "frontier.json"
        assert main([*PLACE_ARGV, "--format", "json",
                     "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["model"] == "MobileNet-v2"
        assert payload["slo"]["min_throughput_rps"] == 2.0
        assert payload["frontier"], "SLO is satisfiable, frontier non-empty"
        assert payload["frontier"][0]["deployment"]["kind"] == "pipeline"

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "frontier.json"
        assert main(["place", "ResNet-18", "--format", "json",
                     "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err

    def test_unsatisfiable_slo_exits_nonzero(self, capsys):
        argv = ["place", "MobileNet-v2", "--device", "Raspberry Pi 3B",
                "--link", "lan", "--deadline-ms", "0.001", "--max-depth", "2"]
        assert main(argv) == 1
        assert "no candidate meets the SLO" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [("--deadline-ms", "nan"),
                                      ("--min-rps", "-1"),
                                      ("--energy-j", "inf")])
    def test_bad_slo_bound_is_a_usage_error(self, flag, capsys):
        assert main(["place", "ResNet-18", *flag]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "finite number > 0" in err

    def test_unknown_link_is_a_usage_error(self, capsys):
        assert main(["place", "MobileNet-v2", "--link", "carrier-pigeon"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_model_is_a_usage_error(self, capsys):
        assert main(["place", "NoSuchModel"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown model: 'NoSuchModel'" in captured.err
        assert captured.out == ""

    def test_same_arguments_write_identical_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([*PLACE_ARGV, "--format", "json",
                         "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFleetPlacement:
    def _frontier_file(self, tmp_path):
        path = tmp_path / "frontier.json"
        assert main([*PLACE_ARGV, "--format", "json",
                     "--output", str(path)]) == 0
        return path

    def test_fleet_serves_the_best_frontier_point(self, tmp_path, capsys):
        path = self._frontier_file(tmp_path)
        capsys.readouterr()
        assert main(["fleet", "--placement", str(path), "--requests", "400",
                     "--epochs", "32", "--rate", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 400
        assert len(payload["pools"]) == 1
        pool = payload["pools"][0]
        assert pool["name"].startswith("placement:Raspberry Pi 3B")
        assert pool["replicas"] == 2
        assert pool["completed"] > 0

    def test_fleet_serves_a_split_onto_an_hpc_device(self, tmp_path, capsys):
        # The GTX Titan X has no thermal spec; the split's pool must
        # serve anyway.
        path = tmp_path / "split.json"
        assert main(["place", "VGG16", "--device", "Raspberry Pi 3B",
                     "--remote", "GTX Titan X", "--link", "loopback",
                     "--format", "json", "--output", str(path)]) == 0
        capsys.readouterr()
        assert "GTX Titan X" in json.loads(path.read_text())[
            "frontier"][0]["deployment"]["stages"][-1]["scenario"]["device"]
        assert main(["fleet", "--placement", str(path), "--requests", "100",
                     "--epochs", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 100

    def test_placement_and_pool_are_exclusive(self, tmp_path, capsys):
        path = self._frontier_file(tmp_path)
        assert main(["fleet", "--placement", str(path), "--requests", "10",
                     "--pool", "1x Jetson Nano:TensorRT"]) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_stage_time_is_a_usage_error(self, value, tmp_path, capsys):
        path = self._frontier_file(tmp_path)
        payload = json.loads(path.read_text())
        stages = payload["frontier"][0]["deployment"]["stages"]
        assert len(stages) == 2  # a pipeline
        stages[0]["compute_s"] = value  # written as Infinity / NaN
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["fleet", "--placement", str(path), "--requests", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert f"compute_s must be a finite number >= 0, got {value}" in err

    def test_empty_frontier_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"frontier": []}))
        assert main(["fleet", "--placement", str(path),
                     "--requests", "10"]) == 2
        assert "no frontier points" in capsys.readouterr().err
