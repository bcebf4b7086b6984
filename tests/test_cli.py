import io
import json
import math
import os
import stat
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from przkbind import groups, simulator
from przkbind.cli import main
from przkbind.protocol import OpCounts
from przkbind.registration import RegistryIOError, load_registry
from przkbind.simulator import (
    KIND_ORDER,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SessionMetrics,
    compute_aggregates,
    run_campaign,
)

from conftest import T0


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Invoke the CLI inside a scratch directory, returning (code, out, err)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRZKBIND_CONFIG", raising=False)

    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def keyfiles(run, tmp_path):
    code, _, _ = run("keygen", "--seed", "tl-001", "--group", "toy", "--out", "keys")
    assert code == 0
    code, _, _ = run(
        "register",
        "--entity-pub", "keys/entity.pub.json",
        "--twin-pub", "keys/twin.pub.json",
        "--registry", "registry.ndjson",
        "--time", str(T0),
    )
    assert code == 0
    return tmp_path


_REGISTER = ("register", "--entity-pub", "keys/entity.pub.json", "--twin-pub",
             "keys/twin.pub.json", "--registry", "registry.ndjson", "--time", str(T0 + 1))
_AUTHENTICATE = ("authenticate", "--entity-key", "keys/entity.key.json", "--twin-key",
                 "keys/twin.key.json", "--registry", "registry.ndjson")


class TestKeygen:
    def test_fixed_seed_reproduces_public_files(self, run, tmp_path):
        assert run("keygen", "--seed", "s1", "--group", "toy", "--out", "a")[0] == 0
        assert run("keygen", "--seed", "s1", "--group", "toy", "--out", "b")[0] == 0
        for name in ("entity.pub.json", "twin.pub.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fixed_seed_reproduces_secret_files(self, run, tmp_path):
        assert run("keygen", "--seed", "s9", "--group", "p256", "--out", "c")[0] == 0
        assert run("keygen", "--seed", "s9", "--group", "p256", "--out", "d")[0] == 0
        for name in ("entity.key.json", "twin.key.json"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()

    def test_secret_files_never_created_readable_by_others(self, run, tmp_path, monkeypatch):
        # record each key file's mode the moment any open call creates it
        real_open, real_io_open = os.open, io.open
        modes = []

        def note(name, fd):
            if "key.json" in os.fspath(name):
                modes.append(stat.S_IMODE(os.fstat(fd).st_mode))

        def os_open(name, flags, mode=0o777, **kwargs):
            fd = real_open(name, flags, mode, **kwargs)
            note(name, fd)
            return fd

        def io_open(name, *args, **kwargs):
            fh = real_io_open(name, *args, **kwargs)
            if not isinstance(name, int):
                note(name, fh.fileno())
            return fh

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(io, "open", io_open)
        old_umask = os.umask(0o022)
        try:
            assert run("keygen", "--seed", "s3", "--group", "toy", "--out", "k")[0] == 0
        finally:
            os.umask(old_umask)
        assert len(modes) >= 2
        assert all(mode & 0o077 == 0 for mode in modes)

    def test_secret_files_restricted_and_flagged(self, run, tmp_path):
        code, out, _ = run("keygen", "--seed", "s2", "--group", "toy", "--out", "k")
        assert code == 0
        assert "permissions 0600" in out
        for name in ("entity.key.json", "twin.key.json"):
            mode = stat.S_IMODE((tmp_path / "k" / name).stat().st_mode)
            assert mode == 0o600

    def test_missing_seed_is_usage_error(self, run):
        code, _, err = run("keygen", "--group", "toy", "--out", "x")
        assert code == 1
        assert "--seed" in err

    def test_bad_group_is_runtime_error(self, run):
        code, _, _ = run("keygen", "--seed", "s", "--group", "ed448", "--out", "x")
        assert code == 2


class TestRegister:
    def test_prints_zeta(self, run, keyfiles):
        registry = (keyfiles / "registry.ndjson").read_text()
        record = json.loads(registry.splitlines()[0])
        # a second registration of a different pair appends
        code, out, _ = run("keygen", "--seed", "other", "--group", "toy", "--out", "k2")
        assert code == 0
        code, out, _ = run(
            "register",
            "--entity-pub", "k2/entity.pub.json",
            "--twin-pub", "k2/twin.pub.json",
            "--registry", "registry.ndjson",
            "--time", str(T0),
        )
        assert code == 0
        assert "zeta=" in out
        assert record["zeta"] in (keyfiles / "registry.ndjson").read_text()

    def test_duplicate_binding_rejected(self, run, keyfiles):
        code, _, err = run(
            "register",
            "--entity-pub", "keys/entity.pub.json",
            "--twin-pub", "keys/twin.pub.json",
            "--registry", "registry.ndjson",
            "--time", str(T0 + 1),
        )
        assert code == 2
        assert "already bound" in err

    @pytest.mark.parametrize("t", ["-1", str(2**64)])
    def test_time_outside_unsigned_64_bits_is_usage_error(self, run, keyfiles, t):
        before = (keyfiles / "registry.ndjson").read_bytes()
        code, _, err = run(*_REGISTER[:-1], t)
        assert code == 1 and "--time" in err and "Traceback" not in err
        assert (keyfiles / "registry.ndjson").read_bytes() == before

    @pytest.mark.parametrize("group_id", ["toy", "p256"])
    @pytest.mark.parametrize("name, field", [("entity.pub.json", "pk_p"), ("twin.pub.json", "pk_d")])
    def test_identity_public_key_is_integrity_failure(self, run, tmp_path, group_id, name, field):
        assert run("keygen", "--seed", "tl-001", "--group", group_id, "--out", "keys")[0] == 0
        group = groups.get_group(group_id)
        (tmp_path / "keys" / name).write_text(json.dumps({"group": group_id, field: group.encode(group.identity).hex()}))
        code, _, err = run(*_REGISTER)
        assert code == 3 and err.count("\n") == 1 and "Traceback" not in err
        assert name in err and repr(field) in err and "identity element" in err
        assert not (tmp_path / "registry.ndjson").exists()


@pytest.mark.parametrize("command, toy_file, p256_file", [
    ("register", "entity.pub.json", "twin.pub.json"),
    ("authenticate", "twin.key.json", "entity.key.json"),
])
def test_key_files_of_different_groups_are_usage_error(run, keyfiles, command, toy_file, p256_file):
    assert run("keygen", "--seed", "tl-001", "--group", "p256", "--out", "p256-keys")[0] == 0
    (keyfiles / "keys" / p256_file).write_bytes((keyfiles / "p256-keys" / p256_file).read_bytes())
    code, _, err = run(*(_REGISTER if command == "register" else _AUTHENTICATE))
    assert code == 1 and "different groups" in err and "Traceback" not in err


class TestAuthenticate:
    def test_successful_session_prints_states_and_transcript(self, run, keyfiles):
        code, out, _ = run(
            "authenticate",
            "--entity-key", "keys/entity.key.json",
            "--twin-key", "keys/twin.key.json",
            "--registry", "registry.ndjson",
        )
        assert code == 0
        assert "commitment_sent" in out
        assert "key_established" in out
        assert "keys agree" in out
        assert '"verdict": {"accept": true' in out

    def test_output_never_contains_stored_secrets(self, run, keyfiles):
        s_p = json.loads((keyfiles / "keys" / "entity.key.json").read_text())["s_p"]
        sk_d = json.loads((keyfiles / "keys" / "twin.key.json").read_text())["sk_d"]
        code, out, err = run(
            "authenticate",
            "--entity-key", "keys/entity.key.json",
            "--twin-key", "keys/twin.key.json",
            "--registry", "registry.ndjson",
        )
        assert code == 0
        assert s_p not in out + err
        assert f'"{sk_d}"' not in out + err

    def test_fiat_shamir_mode(self, run, keyfiles):
        code, out, _ = run(
            "authenticate",
            "--entity-key", "keys/entity.key.json",
            "--twin-key", "keys/twin.key.json",
            "--registry", "registry.ndjson",
            "--fiat-shamir",
        )
        assert code == 0
        assert "verified: True" in out

    def test_tampered_registry_is_integrity_failure(self, run, keyfiles):
        path = keyfiles / "registry.ndjson"
        obj = json.loads(path.read_text().splitlines()[0])
        obj["t"] += 1
        path.write_text(json.dumps(obj) + "\n")
        code, _, err = run(
            "authenticate",
            "--entity-key", "keys/entity.key.json",
            "--twin-key", "keys/twin.key.json",
            "--registry", "registry.ndjson",
        )
        assert code == 3
        assert "record 0" in err

    @pytest.mark.parametrize(
        "line", ["[1, 2]", "non-string zeta", "invalid UTF-8", pytest.param(b"[" * 100_000, id="deep")]
    )
    def test_malformed_registry_line_is_integrity_failure(self, run, keyfiles, line):
        path = keyfiles / "registry.ndjson"
        if line == "non-string zeta":
            obj = json.loads(path.read_text().splitlines()[0])
            obj["zeta"] = 5
            line = json.dumps(obj)
        if line == "invalid UTF-8":
            line = b"\xff\xfe"
        if isinstance(line, bytes):
            path.write_bytes(line + b"\n")
        else:
            path.write_text(line + "\n")
        code, _, err = run(
            "authenticate",
            "--entity-key", "keys/entity.key.json",
            "--twin-key", "keys/twin.key.json",
            "--registry", "registry.ndjson",
        )
        assert code == 3
        assert "record 0" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unregistered_pair_is_integrity_failure(self, run, keyfiles):
        run("keygen", "--seed", "stranger", "--group", "toy", "--out", "s")
        code, _, err = run(
            "authenticate",
            "--entity-key", "s/entity.key.json",
            "--twin-key", "s/twin.key.json",
            "--registry", "registry.ndjson",
        )
        assert code == 3
        assert "no binding record" in err


@pytest.mark.parametrize(
    "command, name, edit, field",
    [
        (_AUTHENTICATE, "entity.key.json", {"s_p": None, "source": None}, "s_p"),
        (_AUTHENTICATE, "entity.key.json", {"s_p": 5}, "s_p"),
        (_AUTHENTICATE, "entity.key.json", {"source": "fixed"}, "source"),
        (_AUTHENTICATE, "entity.key.json", [1, 2], "group"),
        (_AUTHENTICATE, "twin.key.json", {"sk_d": "zz"}, "sk_d"),
        (_AUTHENTICATE, "twin.key.json", {"group": None}, "group"),
        (_REGISTER, "entity.pub.json", {"group": 3}, "group"),
        (_REGISTER, "entity.pub.json", {"pk_p": ["00"]}, "pk_p"),
        (_REGISTER, "twin.pub.json", {"pk_d": None}, "pk_d"),
        (_AUTHENTICATE, "entity.key.json", {"group": "ed448"}, "group"),
        (_AUTHENTICATE, "twin.key.json", {"sk_d": "0000000b"}, "sk_d"),
        (_AUTHENTICATE, "twin.key.json", b"\xff\xfe", None),
        (_REGISTER, "entity.pub.json", {"pk_p": "00000000"}, "pk_p"),
        (_REGISTER, "twin.pub.json", {"pk_d": "00"}, "pk_d"),
        (_REGISTER, "twin.pub.json", b"{not json", None),
        pytest.param(_AUTHENTICATE, "twin.key.json", b"[" * 100_000, None, id="deep"),
    ],
)
def test_malformed_key_file_is_integrity_failure(run, keyfiles, command, name, edit, field):
    path = keyfiles / "keys" / name
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        if isinstance(edit, dict):
            obj = json.loads(path.read_text())
            for key, value in edit.items():
                if value is None:
                    obj.pop(key)
                else:
                    obj[key] = value
        else:
            obj = edit
        path.write_text(json.dumps(obj))
    code, _, err = run(*command)
    assert code == 3
    assert err.count("\n") == 1
    assert name in err and (field is None or repr(field) in err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def p256_files(tmp_path_factory):
    """A valid P-256 key set and its one-line registry, parsed, by file name."""
    out = tmp_path_factory.mktemp("p256-keys")
    assert main(["keygen", "--seed", "tl-001", "--group", "p256", "--out", str(out)]) == 0
    assert main(["register", "--entity-pub", str(out / "entity.pub.json"), "--twin-pub", str(out / "twin.pub.json"),
                 "--registry", str(out / "registry.ndjson"), "--time", str(T0)]) == 0
    return {path.name: json.loads(path.read_text()) for path in out.iterdir()}


_MISSING = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text().filter(lambda s: s.lower() not in ("toy", "p256")),  # a group id would swap the group
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_malformed_stored_field_is_one_line_integrity_failure(run, p256_files, tmp_path, data):
    name = data.draw(st.sampled_from(sorted(p256_files)))
    valid = p256_files[name]
    hexes = {obj[field] for obj in p256_files.values() for field in ("s_p", "sk_d", "pk_p", "pk_d", "zeta")
             if field in obj}
    if data.draw(st.booleans()):
        obj = dict(valid)
        for field in data.draw(st.lists(st.sampled_from(sorted(valid)), min_size=1, unique=True)):
            # hex of another length: for an element or a scalar, the encoding of another kind
            other_length = lambda text, field=field: len(text) != len(str(valid[field]))
            obj[field] = data.draw(st.just(_MISSING) | _JSON | st.binary(max_size=40).map(bytes.hex).filter(other_length)
                                   | st.sampled_from(sorted(filter(other_length, hexes))))
        obj = {field: value for field, value in obj.items() if value is not _MISSING}
    else:
        obj = data.draw(_JSON)
    assume(obj != valid)
    for file_name, content in p256_files.items():
        (tmp_path / file_name).write_text(json.dumps(obj if file_name == name else content) + "\n")
    paths = {file_name: str(tmp_path / file_name) for file_name in p256_files}
    if name.endswith(".pub.json"):
        args = ("register", "--entity-pub", paths["entity.pub.json"], "--twin-pub", paths["twin.pub.json"],
                "--registry", paths["registry.ndjson"], "--time", str(T0 + 1))
    else:
        args = ("authenticate", "--entity-key", paths["entity.key.json"], "--twin-key", paths["twin.key.json"],
                "--registry", paths["registry.ndjson"])
    code, _, err = run(*args)
    assert code == 3 and err.count("\n") == 1 and "Traceback" not in err, (obj, err)
    if name == "registry.ndjson":
        assert err.startswith("error: record 0: ")
        with pytest.raises(RegistryIOError, match="^record 0: "):
            load_registry(groups.get_group("p256"), paths[name])


class TestSimulate:
    def test_summary_and_files(self, run, tmp_path):
        code, out, _ = run(
            "simulate", "--sessions", "50", "--adv-ratio", "0.1",
            "--latency", "10:20", "--seed", "42", "--group", "toy",
        )
        assert code == 0
        assert "45 / 5" in out
        assert "FAR (overall)" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()

    def test_summary_kind_lines_split_into_kind_and_count(self, run):
        code, out, _ = run("simulate", "--sessions", "20", "--adv-ratio", "0.5",
                           "--group", "toy", "--seed", "3")
        assert code == 0
        kind_lines = [line.split() for line in out.splitlines() if line.startswith("  ")]
        assert [fields[0] for fields in kind_lines] == list(KIND_ORDER)
        for fields in kind_lines:
            accepted, attempts = fields[1].split("/")
            assert len(fields) == 2 and accepted.isdigit() and attempts.isdigit()

    def test_byte_identical_reruns_and_parallel(self, run, tmp_path):
        args = ["simulate", "--sessions", "40", "--adv-ratio", "0.2",
                "--latency", "10:20", "--seed", "9", "--group", "toy"]
        assert run(*args, "--out", "r1")[0] == 0
        assert run(*args, "--out", "r2")[0] == 0
        b1 = (tmp_path / "r1.json").read_bytes()
        assert b1 == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_single_honest_session(self, run, tmp_path):
        code, out, _ = run("simulate", "--sessions", "1", "--adv-ratio", "0",
                           "--group", "toy", "--seed", "1")
        assert code == 0
        assert "n/a" in out  # FAR undefined
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["aggregates"]["far"] is None
        assert report["aggregates"]["honest_accept_rate"] == 1.0

    def test_missing_libcrypto_is_a_one_line_error(self, run, monkeypatch):
        # P-256 arithmetic loads libcrypto on first use; toy runs never do
        monkeypatch.setattr(groups, "_CURVE", None)
        monkeypatch.setattr(groups, "_LIBCRYPTO", ("libcrypto-missing.so",))
        code, out, err = run("simulate", "--sessions", "5", "--group", "p256", "--seed", "1")
        assert code == 2
        assert err.count("\n") == 1 and "libcrypto" in err and "Traceback" not in err
        assert run("simulate", "--sessions", "5", "--group", "toy", "--seed", "1")[0] == 0
        assert groups._CURVE is None

    def test_invalid_config_names_field(self, run):
        code, _, err = run("simulate", "--sessions", "10", "--adv-ratio", "1.5", "--group", "toy")
        assert code == 1
        assert "adv_ratio" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--latency", "nan:nan", "latency_range_ms"),
            ("--latency", "0:inf", "latency_range_ms"),
            ("--latency", "0:1e308", "latency_range_ms"),  # each bound is finite, but four delays of high are not
            ("--mix", "replay=nan", "adversary_mix"),
            ("--config", "inf-energy.json", "energy_weights"),
        ],
    )
    def test_non_finite_config_is_config_error(self, run, tmp_path, flag, value, field):
        weights = {"group_exp": float("inf"), "group_mul": 1.0, "hash": 1.0}
        (tmp_path / "inf-energy.json").write_text(json.dumps({"energy_weights": weights}))
        code, _, err = run("simulate", "--sessions", "10", "--adv-ratio", "0.5",
                           "--group", "toy", flag, value)
        assert code == 1
        assert field in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            # each weight is finite, but their total is not
            ({"adv_ratio": 0.5, "adversary_mix": dict.fromkeys(KIND_ORDER, 1e308)}, "adversary_mix"),
            # each delay and a session's four are finite, but the campaign's total delay is not
            ({"latency_range_ms": [1e306, 1e306], "sessions": 100}, "latency_range_ms"),
            # the weights are finite, but the weighted op total is not
            ({"energy_weights": {"group_exp": 1e308, "group_mul": 1, "hash": 1}}, "energy_weights"),
            # an integer beyond the floats
            ({"latency_range_ms": [0, 10**400]}, "latency_range_ms"),
            ({"energy_weights": {"group_exp": 10**400, "group_mul": 1, "hash": 1}}, "energy_weights"),
        ],
    )
    def test_config_whose_sums_overflow_is_config_error(self, run, tmp_path, edit, field):
        cfg = {"sessions": 10, "group_id": "toy", **edit}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, out, err = run("simulate", "--config", "cfg.json")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid config: {field}: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("sessions", [10**27, sys.maxsize + 1], ids=["10**27", "sys.maxsize+1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sessions_past_sys_maxsize_is_config_error(self, run, tmp_path, sessions, source):
        # more rows than a list holds: refused when the config is made, before any list is
        (tmp_path / "cfg.json").write_text(json.dumps({"sessions": sessions, "group_id": "toy"}))
        args = ("--sessions", str(sessions), "--group", "toy") if source == "flag" else ("--config", "cfg.json")
        code, out, err = run("simulate", *args)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid config: sessions: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("report.*"))

    def test_out_of_memory_is_a_one_line_runtime_error(self, run, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(simulator, "allocate_kinds", exhausted)
        assert run("simulate", "--sessions", "5", "--group", "toy") == (2, "", "error: out of memory\n")
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.parametrize("value", ["1:2:3", "1:2:3:4"])
    def test_latency_flag_of_more_than_two_bounds_is_config_error(self, run, tmp_path, value):
        code, _, err = run("simulate", "--sessions", "5", "--group", "toy", "--latency", value)
        assert code == 1 and err.startswith("error: invalid config: latency_range_ms: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"sessions": True}, "sessions"),
            ({"adv_ratio": "0.5"}, "adv_ratio"),
            ({"adversary_mix": {"replay": "a"}}, "adversary_mix"),
            ({"adversary_mix": {"replay": True}}, "adversary_mix"),
            ({"latency_range_ms": [True, 2]}, "latency_range_ms"),
            ({"latency_range_ms": ["a", 2]}, "latency_range_ms"),
            ({"energy_weights": {"group_exp": False, "group_mul": 1, "hash": 1}}, "energy_weights"),
            ({"energy_weights": {"group_exp": 1, "group_mul": 1, "hash": "1"}}, "energy_weights"),
        ],
    )
    def test_mistyped_config_is_config_error(self, run, tmp_path, edit, field):
        cfg = {"sessions": 10, "adv_ratio": 0.5, "group_id": "toy", **edit}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run("simulate", "--config", "cfg.json")
        assert code == 1
        assert field in err
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "content, flags",
        [
            (b"[1]", ("--sessions", "5")),
            (b"[1]", ()),
            (b"{not json", ("--sessions", "5")),
            (b"\xff\xfe", ("--sessions", "5")),
            pytest.param(b"[" * 100_000, ("--sessions", "5"), id="deep"),
        ],
    )
    def test_unreadable_or_non_object_config_is_config_error(self, run, tmp_path, content, flags):
        (tmp_path / "f.json").write_bytes(content)
        code, _, err = run("simulate", "--config", "f.json", "--group", "toy", *flags)
        assert code == 1
        assert "config" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    def test_parallel_option_is_gone(self, run):
        code, _, err = run("simulate", "--sessions", "10", "--group", "toy", "--parallel", "2")
        assert code == 1
        assert "--parallel" in err

    def test_single_latency_is_both_bounds(self, run, tmp_path):
        assert run("simulate", "--sessions", "5", "--group", "toy", "--latency", "15")[0] == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"]["latency_range_ms"] == [15.0, 15.0]

    @pytest.mark.parametrize("flag, value", [("--latency", "abc"), ("--mix", "replay"), ("--mix", "replay=x")])
    def test_unparsable_flag_is_usage_error(self, run, tmp_path, flag, value):
        code, _, err = run("simulate", "--sessions", "5", "--adv-ratio", "0.5", "--group", "toy", flag, value)
        assert code == 1 and flag in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_missing_sessions_is_usage_error(self, run):
        code, _, err = run("simulate", "--group", "toy")
        assert code == 1
        assert "session count" in err

    def test_config_file_with_flag_overrides(self, run, tmp_path):
        cfg = {"sessions": 30, "adv_ratio": 0.1, "group_id": "toy",
               "rng_seed": 5, "latency_range_ms": [0, 0]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, out, _ = run("simulate", "--config", "cfg.json", "--sessions", "20")
        assert code == 0
        assert "18 / 2" in out

    def test_env_var_supplies_default_config(self, run, tmp_path, monkeypatch):
        cfg = {"sessions": 12, "adv_ratio": 0.0, "group_id": "toy", "rng_seed": 2}
        (tmp_path / "envcfg.json").write_text(json.dumps(cfg))
        monkeypatch.setenv("PRZKBIND_CONFIG", str(tmp_path / "envcfg.json"))
        code, out, _ = run("simulate")
        assert code == 0
        assert "12 / 0" in out

    def test_empty_env_var_means_no_config(self, run, tmp_path, monkeypatch):
        args = ("simulate", "--sessions", "5", "--group", "toy")
        assert run(*args)[0] == 0
        defaults = (tmp_path / "report.json").read_bytes()
        monkeypatch.setenv("PRZKBIND_CONFIG", "")
        code, _, err = run(*args)
        assert (code, err) == (0, "")
        assert (tmp_path / "report.json").read_bytes() == defaults


class _Recomputed(dict):
    """A report-row edit after which the aggregates are recomputed to match,
    so that only the check on the row itself can catch it; ``then`` edits the
    rewritten row."""

    def __init__(self, then=lambda row: None, **fields):
        super().__init__(fields)
        self.then = then


class TestReport:
    @pytest.fixture
    def report_file(self, run, tmp_path):
        assert run("simulate", "--sessions", "30", "--adv-ratio", "0.2",
                   "--group", "toy", "--seed", "11", "--out", "camp")[0] == 0
        return tmp_path / "camp.json"

    def test_roundtrip_json(self, run, report_file):
        code, out, _ = run("report", "--in", str(report_file), "--format", "json")
        assert code == 0
        assert json.loads(out)["aggregates"] == json.loads(report_file.read_text())["aggregates"]

    def test_table_lists_every_adversary_kind(self, run, report_file):
        code, out, _ = run("report", "--in", str(report_file), "--format", "table")
        assert code == 0
        for kind in ("honest", "replay", "impersonate_twin", "mitm_tamper",
                     "kci_impersonate_physical"):
            assert kind in out

    def test_table_is_the_simulate_summary(self, run):
        code, simulated, _ = run("simulate", "--sessions", "30", "--adv-ratio", "0.2",
                                 "--group", "toy", "--seed", "11", "--out", "camp")
        assert code == 0
        summary = [line for line in simulated.splitlines() if not line.startswith("wrote ")]
        code, out, _ = run("report", "--in", "camp.json", "--format", "table")
        assert code == 0
        assert out.splitlines() == summary

    def test_hand_edited_aggregate_detected(self, run, report_file):
        obj = json.loads(report_file.read_text())
        obj["aggregates"]["far"] = 0.5
        report_file.write_text(json.dumps(obj))
        code, _, err = run("report", "--in", str(report_file))
        assert code == 3
        assert "far" in err

    def test_missing_aggregate_detected(self, run, report_file):
        obj = json.loads(report_file.read_text())
        del obj["aggregates"]["far"]
        report_file.write_text(json.dumps(obj))
        assert run("report", "--in", str(report_file)) == (3, "", "error: malformed report file: aggregate mismatch: far missing from report\n")

    @pytest.mark.parametrize("metric, stored", [("honest_accept_rate", True), ("honest_accept_rate", 1),
                                                ("sessions", 30.0)])
    def test_aggregate_of_another_json_type_detected(self, run, report_file, metric, stored):
        # each stored value equals the recomputed one in Python: 1.0 == True == 1, 30 == 30.0
        obj = json.loads(report_file.read_text())
        assert obj["aggregates"][metric] == stored and json.dumps(obj["aggregates"][metric]) != json.dumps(stored)
        obj["aggregates"][metric] = stored
        report_file.write_text(json.dumps(obj))
        assert run("report", "--in", str(report_file)) == (3, "", f"error: malformed report file: aggregate mismatch: {metric}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["aggregates"].update(bogus=1), "unknown key 'bogus' in aggregates"),
            (lambda obj: obj.update(extra={"a": 1}), "unknown key 'extra' in report"),
            (lambda obj: obj["sessions"][4].update(note="x"), "unknown key 'note' in session 4"),
            (lambda obj: obj["sessions"][4]["ops"].update(q={}), "unknown key 'q' in session 4 ops"),
        ],
        ids=["extra_aggregate", "extra_block", "extra_row_field", "extra_ops_party"],
    )
    def test_unknown_content_is_integrity_failure(self, run, report_file, edit, message):
        # the reprint would silently drop it, so the file is refused, naming the key
        obj = json.loads(report_file.read_text())
        edit(obj)
        report_file.write_text(json.dumps(obj))
        assert run("report", "--in", str(report_file)) == (3, "", f"error: malformed report file: {message}\n")

    @pytest.mark.parametrize("drop", [0, -1])
    def test_rows_must_be_every_session_of_the_config(self, run, report_file, drop):
        # a dropped row, with the aggregates recomputed to match, still fails
        obj = json.loads(report_file.read_text())
        del obj["sessions"][drop]
        metrics = [SessionMetrics.from_dict(s) for s in obj["sessions"]]
        weights = CampaignConfig.from_dict(obj["config"]).energy_weights
        obj["aggregates"] = compute_aggregates(metrics, weights)
        report_file.write_text(json.dumps(obj))
        code, _, err = run("report", "--in", str(report_file))
        assert code == 3
        assert "sessions 0..29" in err and err.count("\n") == 1

    def test_csv_output_matches_simulated_csv(self, run, report_file, tmp_path):
        code, out, _ = run("report", "--in", str(report_file), "--format", "csv")
        assert code == 0
        assert out == (tmp_path / "camp.csv").read_text()

    @pytest.mark.parametrize(
        "edit, names",
        [
            ({"auth_latency_ms": "x"}, ("session 0", "auth_latency_ms")),
            ({"accepted": "yes"}, ("session 0", "accepted")),
            ({"key_establish_ms": True}, ("session 0", "key_establish_ms")),
            ({"ops": {"p": {"hash": "1"}, "d": {}}}, ("session 0", "ops")),
            ({"aggregates": 5}, ("aggregates",)),
            (b"{not json", ("camp.json",)),
            (b"\xff\xfe", ("camp.json",)),
            pytest.param(b"[" * 100_000, ("camp.json",), id="deep"),
            ({"config": "x"}, ("config",)),
            ({"config": {"sessions": "x"}}, ("sessions",)),
            (_Recomputed(kind="bogus"), ("session 0", "kind", "bogus")),
            (_Recomputed(key_agreement="no"), ("session 0", "key_agreement")),
            (_Recomputed(index="zz"), ("session 'zz'", "index")),
            (_Recomputed(detail=5), ("session 0", "detail")),
            (_Recomputed(auth_latency_ms=-5.0), ("session 0", "latency", "negative")),
            (_Recomputed(key_establish_ms=-1.0), ("session 0", "latency", "negative")),
            (_Recomputed(ops_d=OpCounts(hash=-3)), ("session 0", "op count", "negative")),
            (_Recomputed(index=1), ("sessions 0..29",)),  # two rows with index 1
            # session 0 is an honest, accepted row whose keys agree
            (_Recomputed(key_agreement=False), ("session 0", "key_agreement", "accepted")),
            (_Recomputed(key_establish_ms=None), ("session 0", "key_establish_ms")),
            (_Recomputed(kind="replay", key_agreement=None), ("session 0", "adversarial")),
            (_Recomputed(kind="replay", key_establish_ms=None), ("session 0", "adversarial")),
            (_Recomputed(auth_latency_ms=math.inf), ("session 0", "auth_latency_ms", "finite")),
            (_Recomputed(auth_latency_ms=math.nan), ("session 0", "auth_latency_ms", "finite")),
            (_Recomputed(key_establish_ms=math.inf), ("session 0", "key_establish_ms", "finite")),
            # an edit of the rows list: a row that is not an object with every field
            # is named by its index, or by its position when it has none
            (lambda rows: rows[0].pop("detail"), ("session 0", "lacks detail")),
            (lambda rows: rows.__setitem__(3, [1]), ("row 3", "not an object")),
            (lambda rows: rows[0]["ops"].pop("p"), ("session 0", "lacks ops.p")),
            (lambda rows: rows[5].pop("index"), ("row 5", "lacks index")),
            (lambda rows: rows[2]["ops"]["d"].update(joules=1), ("session 2", "ops.d", "op counts")),
            # zero counts, written as an empty object, still lack every op name
            (_Recomputed(ops_p=OpCounts(), then=lambda row: row["ops"]["p"].clear()), ("session 0", "lacks ops.p")),
            # a sessions block that is not a list is named, not read as rows
            ({"sessions": "[{}]"}, ("sessions is not a list",)),
            ({"sessions": {"0": {"index": 0}}}, ("sessions is not a list",)),
            # session 0's key time, within the range but not its auth_latency_ms: one clock times both
            pytest.param(_Recomputed(key_establish_ms=40.0), ("session 0", "key_establish_ms", "auth_latency_ms"),
                         id="honest_key_time_off_its_auth_latency"),
        ],
    )
    def test_malformed_report_is_integrity_failure(self, run, report_file, edit, names):
        if isinstance(edit, bytes):
            report_file.write_bytes(edit)
        else:
            obj = json.loads(report_file.read_text())
            if isinstance(edit, _Recomputed):
                metrics = [SessionMetrics.from_dict(s) for s in obj["sessions"]]
                for name, value in edit.items():
                    setattr(metrics[0], name, value)
                weights = CampaignConfig.from_dict(obj["config"]).energy_weights
                obj["aggregates"] = compute_aggregates(metrics, weights)
                obj["sessions"][0] = metrics[0].to_dict()
                edit.then(obj["sessions"][0])
            elif callable(edit):
                edit(obj["sessions"])
            elif edit.keys() & {"aggregates", "config", "sessions"}:
                obj.update(edit)
            else:
                obj["sessions"][0].update(edit)
            report_file.write_text(json.dumps(obj))
        code, _, err = run("report", "--in", str(report_file))
        assert code == 3
        assert all(name in err for name in names)
        assert err.count("\n") == 1
        assert "Traceback" not in err


_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array",
          dict: "object"}  # a parsed JSON value's type -> its JSON kind
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def report_text():
    """A valid 20-session toy report file with honest and adversarial rows."""
    return run_campaign(CampaignConfig(sessions=20, adv_ratio=0.5, group_id="toy", rng_seed=4)).to_json()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_malformed_report_is_one_line_integrity_failure(run, report_text, tmp_path, data):
    # Drop, replace or retype a block or a row; drop or retype a row's field, one of
    # its op counts or an aggregate; add an unknown key beside any of them but a row;
    # or reorder the rows. A config field is not
    # edited: a report's config is read as a config file, where a missing field
    # takes its default and a latency may be one number, and only its sessions,
    # energy weights and the kind counts it allocates are checked against the rows.
    obj = json.loads(report_text)
    rows = obj["sessions"]
    row = data.draw(st.sampled_from(rows))
    where = data.draw(st.sampled_from(["block", "row", "field", "ops", "op count", "aggregate", "order"]))
    if where == "order":
        order = data.draw(st.permutations(range(len(rows))).filter(lambda order: order != sorted(order)))
        obj["sessions"] = [rows[i] for i in order]
    else:
        container = {"block": obj, "row": rows, "field": row, "ops": row["ops"],
                     "op count": row["ops"][data.draw(st.sampled_from("pd"))], "aggregate": obj["aggregates"]}[where]
        key = data.draw(st.sampled_from(range(len(rows)) if container is rows else sorted(container)))
        old = container[key]
        actions = ["drop", "retype"] + ["replace"] * (where in ("block", "row")) + ["add"] * (container is not rows)
        action = data.draw(st.sampled_from(actions))
        if action == "add":
            container[data.draw(st.text(max_size=4).filter(lambda new: new not in container))] = data.draw(_ANY_JSON)
        elif action == "drop":
            del container[key]
        elif action == "retype":
            container[key] = data.draw(_ANY_JSON.filter(lambda value: _KINDS[type(value)] != _KINDS[type(old)]))
        else:
            copies = st.sampled_from(rows).map(dict) if container is rows else st.nothing()
            container[key] = data.draw((_ANY_JSON | copies).filter(lambda value: value != old))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    code, out, err = run("report", "--in", str(path))
    assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1, (obj, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda config: config.update(adv_ratio=0.25),
        lambda config: config.pop("adv_ratio"),
        lambda config: config.update(adversary_mix={"replay": 1.0}),
    ],
    ids=["adv_ratio_changed", "adv_ratio_removed", "replay_only_mix"],
)
def test_config_that_allocates_other_kinds_is_integrity_failure(run, report_text, tmp_path, edit):
    # the rows and aggregates are the campaign's; only the config's kind allocation is not
    obj = json.loads(report_text)
    edit(obj["config"])
    (tmp_path / "edited.json").write_text(json.dumps(obj))
    code, out, err = run("report", "--in", "edited.json")
    assert (code, out) == (3, "")
    assert err.startswith("error: malformed report file: kind_counts differ from what the config allocates") and err.count("\n") == 1


def test_keywords_file_and_flags_write_one_report(run, tmp_path):
    # integer bounds and weights, a partial mix and unsorted energy weights are stored as reports list them
    kwargs = dict(sessions=12, adv_ratio=0.5, adversary_mix={"replay": 1, "mitm_tamper": 2}, latency_range_ms=(10, 20),
                  group_id="toy", rng_seed=3, energy_weights={"hash": 1, "group_mul": 1, "group_exp": 10})
    library = run_campaign(CampaignConfig(**kwargs))
    (tmp_path / "cfg.json").write_text(json.dumps(kwargs))
    assert run("simulate", "--config", "cfg.json", "--out", "file")[0] == 0
    assert run("simulate", "--sessions", "12", "--adv-ratio", "0.5", "--mix", "replay=1,mitm_tamper=2",
               "--latency", "10:20", "--group", "toy", "--seed", "3", "--out", "flags")[0] == 0
    for name in ("file", "flags"):
        assert (tmp_path / f"{name}.json").read_text() == library.to_json()
        assert (tmp_path / f"{name}.csv").read_text() == library.to_csv()


def test_campaign_with_disagreeing_keys_passes_report(run, tmp_path, skewed_twin_keys):
    # no honest session is accepted, and the report of such a campaign is still one that report reads
    report = run_campaign(CampaignConfig(sessions=20, adv_ratio=0.2, group_id="toy", rng_seed=4))
    assert report.aggregates["honest_accept_rate"] < 1 and report.aggregates["key_agreement_rate"] < 1
    (tmp_path / "skewed.json").write_text(report.to_json())
    assert run("report", "--in", "skewed.json", "--format", "json") == (0, report.to_json(), "")


def test_fleet_shaped_report_passes(run, tmp_path):
    # the shape of perfbench's fleet log: adv_ratio 0, every row honest, one row per session
    ops = OpCounts(4, 3, 2)
    rows = [SessionMetrics(i, "honest", True, 0.0, 0.0, ops, ops, True, f"device={i % 3}") for i in range(6)]
    config = CampaignConfig(sessions=len(rows), adv_ratio=0.0, latency_range_ms=(0.0, 0.0), group_id="toy", rng_seed=9)
    report = CampaignReport(config, rows, compute_aggregates(rows, config.energy_weights))
    (tmp_path / "fleet.json").write_text(report.to_json())
    assert run("report", "--in", "fleet.json", "--format", "json") == (0, report.to_json(), "")


@pytest.mark.parametrize(
    "edit, field",
    [
        ({"adversary_mix": dict.fromkeys(KIND_ORDER, 1e308)}, "adversary_mix"),
        ({"latency_range_ms": [10.0, 1e308]}, "latency_range_ms"),
        ({"energy_weights": {"group_exp": 1e308, "group_mul": 1.0, "hash": 1.0}}, "energy_weights"),
    ],
    ids=["mix_total", "latency_high", "weighted_op_total"],
)
def test_report_whose_config_sums_overflow_is_integrity_failure(run, report_text, tmp_path, edit, field):
    obj = json.loads(report_text)
    obj["config"].update(edit)
    (tmp_path / "edited.json").write_text(json.dumps(obj))
    code, out, err = run("report", "--in", "edited.json")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: malformed report file: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda obj, row: row["ops"]["p"].update(hash=10**400), "malformed report file"),
        (lambda obj, row: row.update(auth_latency_ms=10**400), "latency_range_ms"),
        (lambda obj, row: row.update(key_establish_ms=10**400), "latency_range_ms"),
        (lambda obj, row: obj["config"].update(sessions=10**30), "sessions 0.."),
    ],
    ids=["op_count", "auth_latency", "key_establish", "sessions"],
)
def test_report_value_past_the_floats_is_one_line_integrity_failure(run, report_text, tmp_path, edit, named):
    # a JSON integer has no bound; a report holding one too large for a float fails like any malformed file
    obj = json.loads(report_text)
    edit(obj, next(row for row in obj["sessions"] if row["kind"] == "honest" and row["accepted"]))
    (tmp_path / "edited.json").write_text(json.dumps(obj))
    code, out, err = run("report", "--in", "edited.json")
    assert (code, out) == (3, "") and named in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bound", ["low", "high"])
def test_rows_outside_the_latency_range_are_integrity_failure(run, report_text, tmp_path, bound):
    # an honest session delays exactly its four non-verdict messages, any session at most four
    obj = json.loads(report_text)
    rows, (low, high) = obj["sessions"], obj["config"]["latency_range_ms"]
    honest = [row["auth_latency_ms"] for row in rows if row["kind"] == "honest"]
    if bound == "high":  # the longest session now exceeds four high delays
        high = max(row["auth_latency_ms"] for row in rows) / 4 * 0.99
        outside = [row for row in rows if row["auth_latency_ms"] > 4 * high]
    else:  # the shortest honest session now falls short of four low delays
        low = min(honest) / 4 * 1.01
        outside = [row for row in rows if row["kind"] == "honest" and row["auth_latency_ms"] < 4 * low]
    assert low <= high and outside
    obj["config"]["latency_range_ms"] = [low, high]
    (tmp_path / "edited.json").write_text(json.dumps(obj))
    code, out, err = run("report", "--in", "edited.json")
    assert (code, out) == (3, "")
    assert err == (f"error: malformed report file: session {outside[0]['index']}: "
                   "a latency lies outside what latency_range_ms allows\n")


@pytest.mark.parametrize(
    "kind, latency, code",
    [
        ("honest", 80.0, 0),
        ("honest", math.nextafter(80.0, math.inf), 0),  # random.uniform may pass high by an ulp
        ("honest", 80.0 * (1 + 1e-8), 3),
        ("honest", 40.0, 0),
        ("honest", math.nextafter(40.0, 0.0), 0),
        ("honest", 40.0 * (1 - 1e-8), 3),
        ("replay", 0.0, 0),  # an attacked session may move fewer messages
        ("replay", 80.0 * (1 + 1e-8), 3),
    ],
)
def test_latency_range_bounds_each_row(run, tmp_path, kind, latency, code):
    ops = OpCounts(4, 3, 2)
    honest = kind == "honest"
    row = SessionMetrics(0, kind, honest, latency, latency if honest else None, ops, ops, True if honest else None)
    config = CampaignConfig(sessions=1, adv_ratio=0.0 if honest else 1.0, adversary_mix={kind: 1.0} if not honest
                            else dict.fromkeys(KIND_ORDER, 1.0), latency_range_ms=(10.0, 20.0), group_id="toy")
    report = CampaignReport(config, [row], compute_aggregates([row], config.energy_weights))
    (tmp_path / "one.json").write_text(report.to_json())
    assert run("report", "--in", "one.json")[0] == code


def _nonnegative(small):
    """Mostly small values, else zero, a huge but finite one, or any finite one."""
    huge = st.sampled_from((1e300, 1e306, 1e307, 1e308, sys.float_info.max))
    return st.one_of(small, small, small, st.just(0.0), huge, st.floats(0.0, sys.float_info.max))


_weights = _nonnegative(st.floats(0.0, 100.0))
_bounds = _nonnegative(st.floats(0.0, 50.0))


@st.composite
def _campaign_configs(draw):
    """Campaign configs over both groups: edge ratios, zero and huge-but-finite weights and
    latency bounds, equal bounds."""
    group_id = draw(st.sampled_from(("toy", "p256")))
    low, high = draw(_bounds), draw(_bounds)
    return {
        "sessions": draw(st.integers(1, 16 if group_id == "p256" else 40)),
        "adv_ratio": draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        "adversary_mix": {kind: draw(_weights) for kind in KIND_ORDER},
        "latency_range_ms": [low, low] if draw(st.booleans()) else sorted([low, high]),
        "group_id": group_id,
        "rng_seed": draw(st.integers(0, 2**32)),
        "energy_weights": {op: draw(_weights) for op in ("group_exp", "group_mul", "hash")},
    }


def _no_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


def _integral(config):
    """A config's latency bounds and weights rounded up to integers, as a caller of the library may write them."""
    def ceil(weights):
        return {key: math.ceil(weight) for key, weight in weights.items()}

    return {**config, "latency_range_ms": tuple(map(math.ceil, config["latency_range_ms"])),
            "adversary_mix": ceil(config["adversary_mix"]), "energy_weights": ceil(config["energy_weights"])}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_campaign_configs(), via_library=st.booleans())
def test_simulate_then_report_round_trips_or_fails_cleanly(run, tmp_path, config, via_library):
    # the report is written by simulate from a config file, or by run_campaign(...).to_json() and
    # .to_csv() from keyword arguments with integer bounds and weights
    for stale in tmp_path.glob("prop.*"):
        stale.unlink()
    if via_library:
        try:  # a clean failure: a config error, when the config is made or its weighted op total overflows
            cfg = CampaignConfig(**_integral(config))
            report = run_campaign(cfg)
        except ConfigError:
            return
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(FrozenInstanceError):
            cfg.sessions = 1
        (tmp_path / "prop.json").write_text(report.to_json())
        (tmp_path / "prop.csv").write_text(report.to_csv())
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code, out, err = run("simulate", "--config", "cfg.json", "--out", "prop")
        if code != 0:  # a clean failure: a config error on one line, and no file written
            assert code == 1 and err.startswith("error: invalid config: ") and err.count("\n") == 1, (config, err)
            assert not list(tmp_path.glob("prop.*"))
            return
    text, csv_text = (tmp_path / "prop.json").read_text(), (tmp_path / "prop.csv").read_text()
    json.loads(text, parse_constant=_no_constant)
    assert run("report", "--in", "prop.json")[0] == 0
    assert run("report", "--in", "prop.json", "--format", "json") == (0, text, "")
    assert run("report", "--in", "prop.json", "--format", "csv") == (0, csv_text, "")
