import hashlib
import json
import os
import struct

import pytest

from przkbind.groups import get_group
from przkbind.registration import (
    BindingRecord,
    RegistrationError,
    Registry,
    RegistryIOError,
    compute_zeta,
    load_registry,
    save_registry,
    verify_record,
    write_fields,
)

from conftest import T0

# Independently recomputed digest for (pk_p=13, pk_d=8, t=1700000000) in the
# toy encodings; frozen from a standalone hashing script.
ZETA_13_8_T0 = "c59e7d58ab270f96a63d426627dcc6ad6cdb44d497d14ac0fef075d6bed3578b"


class TestZeta:
    def test_deterministic(self, toy):
        assert compute_zeta(toy, 13, 8, T0) == compute_zeta(toy, 13, 8, T0)

    def test_every_input_changes_the_digest(self, toy):
        base = compute_zeta(toy, 13, 8, T0)
        assert compute_zeta(toy, 13, 8, T0 + 1) != base
        assert compute_zeta(toy, 12, 8, T0) != base
        assert compute_zeta(toy, 13, 9, T0) != base

    def test_matches_standalone_sha256_recomputation(self, toy):
        def frame(field: bytes) -> bytes:
            return struct.pack(">I", len(field)) + field

        oracle = hashlib.sha256(
            b"\x02"
            + frame(struct.pack(">I", 13))
            + frame(struct.pack(">I", 8))
            + frame(struct.pack(">Q", T0))
        ).hexdigest()
        assert oracle == ZETA_13_8_T0
        assert compute_zeta(toy, 13, 8, T0).hex() == ZETA_13_8_T0

    def test_timestamp_range_enforced(self, toy):
        with pytest.raises(RegistrationError):
            compute_zeta(toy, 13, 8, -1)
        with pytest.raises(RegistrationError):
            compute_zeta(toy, 13, 8, 2**64)


class TestVerifyRecord:
    def test_fresh_record_verifies(self, toy_env):
        assert verify_record(toy_env["group"], toy_env["record"])

    def test_flipped_zeta_bit_detected(self, toy_env):
        rec = toy_env["record"]
        bad = bytes([rec.zeta[0] ^ 0x01]) + rec.zeta[1:]
        assert not verify_record(toy_env["group"], BindingRecord(rec.pk_p, rec.pk_d, rec.t, bad))

    def test_altered_timestamp_detected(self, toy_env):
        rec = toy_env["record"]
        assert not verify_record(
            toy_env["group"], BindingRecord(rec.pk_p, rec.pk_d, rec.t + 1, rec.zeta)
        )


class TestRegister:
    def test_record_fields_and_zeta(self, toy_env):
        rec = toy_env["record"]
        assert (rec.pk_p, rec.pk_d, rec.t) == (13, 8, T0)
        assert rec.zeta.hex() == ZETA_13_8_T0

    def test_duplicate_pair_rejected(self, toy_env):
        with pytest.raises(RegistrationError, match="already bound"):
            toy_env["registry"].register(13, 8, T0 + 5)

    def test_identity_element_keys_rejected(self, toy):
        registry = Registry(toy)
        with pytest.raises(RegistrationError):
            registry.register(toy.identity, 8, T0)
        with pytest.raises(RegistrationError):
            registry.register(13, toy.identity, T0)

    def test_nonmember_keys_rejected(self, toy):
        with pytest.raises(RegistrationError):
            Registry(toy).register(5, 8, T0)

    def test_lookup(self, toy_env):
        assert toy_env["registry"].get(13, 8) == toy_env["record"]
        assert toy_env["registry"].get(13, 4) is None


class TestPersistence:
    def test_roundtrip(self, toy, tmp_path):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        registry.register(13, 4, T0 + 1)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        loaded = load_registry(toy, path)
        assert len(loaded) == 2
        assert list(loaded) == list(registry)

    def test_failed_replace_leaves_old_registry(self, toy, tmp_path, monkeypatch):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        before = path.read_bytes()
        registry.register(13, 4, T0)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_registry(registry, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["registry.ndjson"]

    def test_empty_roundtrip(self, toy, tmp_path):
        path = tmp_path / "empty.ndjson"
        save_registry(Registry(toy), path)
        assert len(load_registry(toy, path)) == 0

    def test_tampered_record_names_its_index(self, toy, tmp_path):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        registry.register(13, 4, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["t"] += 1  # breaks the zeta binding of record 1
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RegistryIOError, match="record 1"):
            load_registry(toy, path)

    def test_unparseable_line_names_its_index(self, toy, tmp_path):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        path.write_text("{not json}\n" + path.read_text())
        with pytest.raises(RegistryIOError, match="record 0"):
            load_registry(toy, path)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"just a string"',
            '{"pk_p": "0000000d", "pk_d": "00000008", "t": 1700000000, "zeta": 5}',
            '{"pk_p": 13, "pk_d": "00000008", "t": 1700000000, "zeta": "00"}',
            # a second record for an already bound pair
            json.dumps({"pk_p": "0000000d", "pk_d": "00000008", "t": T0, "zeta": ZETA_13_8_T0}),
            # bytes that are not UTF-8
            b"\xff\xfe",
            # nesting too deep to parse
            pytest.param(b"[" * 100_000, id="deep"),
        ],
    )
    def test_malformed_line_names_its_index(self, toy, tmp_path, line):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        if isinstance(line, str):
            line = line.encode()
        path.write_bytes(path.read_bytes() + line + b"\n")
        with pytest.raises(RegistryIOError, match="record 1"):
            load_registry(toy, path)

    @pytest.mark.parametrize("t", [True, -1, 2**64, "1"])
    def test_timestamp_outside_u64_integers_named(self, toy, tmp_path, t):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        obj = json.loads(path.read_text())
        obj["t"] = t
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(RegistryIOError, match=r"^record 0: field 't'"):
            load_registry(toy, path)

    def test_boolean_timestamp_is_never_saved(self, toy, tmp_path):
        # zeta of t = 1, which a boolean true would pass for
        line = {"pk_p": "0000000d", "pk_d": "00000008", "t": True, "zeta": compute_zeta(toy, 13, 8, 1).hex()}
        path = tmp_path / "registry.ndjson"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(RegistryIOError, match=r"^record 0: field 't'"):
            load_registry(toy, path)
        line["t"] = 1
        path.write_text(json.dumps(line) + "\n")
        save_registry(load_registry(toy, path), path)
        assert path.read_text() == json.dumps(line) + "\n"

    @pytest.mark.parametrize("group_id", ["toy", "p256"])
    @pytest.mark.parametrize("field", ["pk_p", "pk_d"])
    def test_identity_key_refused_though_zeta_matches(self, tmp_path, group_id, field):
        group = get_group(group_id)
        keys = {"pk_p": group.exp(group.g, 2), "pk_d": group.exp(group.g, 3), field: group.identity}
        rec = BindingRecord(**keys, t=T0, zeta=compute_zeta(group, keys["pk_p"], keys["pk_d"], T0))
        assert verify_record(group, rec)
        path = tmp_path / "registry.ndjson"
        path.write_text(json.dumps(write_fields(group, vars(rec))) + "\n")
        with pytest.raises(RegistryIOError, match=f"^record 0: field '{field}': the identity element"):
            load_registry(group, path)

    def test_missing_key_named(self, toy, tmp_path):
        path = tmp_path / "registry.ndjson"
        path.write_text('{"pk_p": "00000002", "pk_d": "00000004", "t": 5}\n')
        with pytest.raises(RegistryIOError, match="record 0"):
            load_registry(toy, path)

    def test_file_is_one_json_object_per_line(self, toy, tmp_path):
        registry = Registry(toy)
        registry.register(13, 8, T0)
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert set(obj) == {"pk_p", "pk_d", "t", "zeta"}
        assert obj["pk_p"] == "0000000d"
        assert obj["pk_d"] == "00000008"
        assert obj["t"] == T0
        assert obj["zeta"] == ZETA_13_8_T0
