"""Scenario canonical identity: golden keys, seed/deploy-key subsumption."""

import hashlib

import pytest

from repro.core.registry import canonical_name
from repro.engine.cache import cached_deploy
from repro.graphs.tensor import DType
from repro.runtime import Scenario

# Golden seeds: these values are the harness's historical per-cell noise
# seeds.  They must never change — a drift here silently changes every
# exported snapshot.
GOLDEN_SEEDS = {
    ("ResNet-18", "Jetson Nano", "TensorRT"): 2768483823,
    ("VGG16", "Raspberry Pi 3B", "TensorFlow"): 3079484159,
    ("MobileNet-v2", "EdgeTPU", "TFLite"): 2704308560,
    ("C3D", "Movidius NCS", "NCSDK"): 2021213727,
}


class TestCanonicalIdentity:
    @pytest.mark.parametrize("cell,seed", sorted(GOLDEN_SEEDS.items()))
    def test_golden_seeds(self, cell, seed):
        assert Scenario(*cell).seed == seed

    @pytest.mark.parametrize("cell", sorted(GOLDEN_SEEDS))
    def test_seed_matches_legacy_measurement_seed(self, cell):
        # The harness's original per-cell seed: blake2s of the canonical
        # "model|device|framework" string, read big-endian.
        cell_id = "|".join(canonical_name(name) for name in cell)
        digest = hashlib.blake2s(cell_id.encode(), digest_size=4).digest()
        assert Scenario(*cell).seed == int.from_bytes(digest, "big")

    def test_golden_key_string(self):
        scenario = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        assert scenario.key == (
            "resnet18|jetsonnano|tensorrt"
            "|dtype=default|batch=1|power=default|container=no")

    def test_golden_key_string_full_axes(self):
        scenario = Scenario("MobileNet-v2", "EdgeTPU", "TFLite",
                            dtype=DType.INT8, batch_size=4,
                            power_mode="MAXN", containerized=True)
        assert scenario.key == (
            "mobilenetv2|edgetpu|tflite"
            "|dtype=int8|batch=4|power=maxn|container=yes")

    def test_aliases_share_identity(self):
        a = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        b = Scenario("resnet_18", "jetson nano", "tensor-rt")
        assert a.cell == b.cell
        assert a.key == b.key
        assert a.seed == b.seed

    def test_seed_ignores_runtime_axes(self):
        base = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        varied = Scenario("ResNet-18", "Jetson Nano", "TensorRT",
                          dtype=DType.FP16, batch_size=8,
                          power_mode="MAXN", containerized=True)
        assert varied.seed == base.seed
        assert varied.key != base.key

    def test_deploy_key_subsumes_cache_helper(self):
        scenario = Scenario("ResNet-18", "Jetson Nano", "TensorRT",
                            dtype=DType.FP16)
        assert scenario.deploy_key == ("resnet18", "jetsonnano", "tensorrt",
                                       DType.FP16)
        # ... and is the key the deploy cache tags its deployments with.
        assert scenario.deploy_key == cached_deploy(
            "ResNet-18", "Jetson Nano", "TensorRT", dtype=DType.FP16).cache_key

    def test_deploy_key_ignores_session_axes(self):
        plain = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        batched = Scenario("ResNet-18", "Jetson Nano", "TensorRT",
                           batch_size=8, containerized=True)
        assert plain.deploy_key == batched.deploy_key


class TestConstructionAndDerivation:
    def test_str_dtype_coerces(self):
        assert Scenario("a", "b", "c", dtype="fp16").dtype is DType.FP16

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            Scenario("a", "b", "c", batch_size=0)

    def test_with_framework(self):
        base = Scenario("ResNet-18", "Jetson Nano", "TensorRT", batch_size=4)
        other = base.with_framework("PyTorch")
        assert other.framework == "PyTorch"
        assert other.batch_size == 4
        assert base.framework == "TensorRT"

    def test_default_runtime_gate(self):
        assert Scenario("a", "b", "c").is_default_runtime
        assert Scenario("a", "b", "c", power_mode="Default").is_default_runtime
        assert not Scenario("a", "b", "c", power_mode="MAXN").is_default_runtime

    def test_hashable_and_equal(self):
        a = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        b = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        assert a == b
        assert len({a, b}) == 1

    def test_dict_round_trip(self):
        scenario = Scenario("VGG16", "Jetson TX2", "PyTorch",
                            dtype=DType.INT8, batch_size=2,
                            power_mode="Max-Q", containerized=True)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_dict_round_trip_defaults(self):
        scenario = Scenario("VGG16", "Jetson TX2", "PyTorch")
        payload = scenario.to_dict()
        assert payload["dtype"] is None
        assert Scenario.from_dict(payload) == scenario


class TestIdentityComputedOnce:
    """``cell``, ``cell_id``, ``key`` and ``seed`` are computed on first
    access only, and the memo never reaches equality, hashing, pickles,
    copies, ``replace`` or ``to_dict``."""

    def test_each_identity_canonicalizes_once(self, monkeypatch):
        import repro.runtime.scenario as scenario_module

        calls = []

        def counting(name):
            calls.append(name)
            return canonical_name(name)

        monkeypatch.setattr(scenario_module, "canonical_name", counting)
        scenario = Scenario("resnet18", "Jetson Nano", "TensorRT")
        first = (scenario.cell, scenario.cell_id, scenario.key, scenario.seed)
        assert len(calls) == 3
        again = (scenario.cell, scenario.cell_id, scenario.key, scenario.seed)
        assert again == first and len(calls) == 3
        assert first[3] == GOLDEN_SEEDS[("ResNet-18", "Jetson Nano", "TensorRT")]

    def test_memo_stays_out_of_equality_pickles_and_copies(self):
        import copy
        import pickle
        from dataclasses import replace

        fresh = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        read = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        before = pickle.dumps(read)
        key, seed = read.key, read.seed
        assert pickle.dumps(read) == before == pickle.dumps(fresh)
        assert read == fresh and hash(read) == hash(fresh)
        assert read.to_dict() == fresh.to_dict()
        for clone in (pickle.loads(before), copy.copy(read), copy.deepcopy(read)):
            assert clone == read and (clone.key, clone.seed) == (key, seed)
        other = replace(read, framework="PyTorch")
        assert other.key == key.replace("tensorrt", "pytorch")
        assert other.seed != seed
