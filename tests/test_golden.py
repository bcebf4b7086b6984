"""Golden reports: fixed seeds must keep producing byte-identical output.

The digests pin ``to_json()`` and ``to_csv()`` of small campaigns in both
groups. ``adv_ratio`` 0.5 with the default mix runs every attack kind, so
the honest session, all four adversaries, the virtual clock and the report
writers are covered. A digest changes only when the reports do; update it
only for a deliberate change to the report format or the session rng draws.

The CLI digests pin the four key files ``keygen`` writes for a fixed seed
(the scalar codec writes ``sk_d``) and the stdout of ``authenticate`` in
both modes (the scalar codec writes ``z`` there too).

The wire digests pin ``encode_message`` of every message type, with a
verdict for each reason. Round-trip tests cannot catch a change, such as a
field-order swap, that encoder and decoder share.
"""

import hashlib

import pytest

from przkbind.cli import main
from przkbind.groups import get_group
from przkbind.protocol import (
    Challenge,
    Commit,
    IdentityProof,
    Reason,
    Response,
    TwinSession,
    Verdict,
    encode_message,
)
from przkbind.simulator import (
    HONEST,
    KIND_ORDER,
    CampaignConfig,
    SimulationError,
    build_env,
    run_campaign,
    run_session,
    _spawn_rng,
)

GOLDEN = [
    (
        dict(sessions=200, adv_ratio=0.5, group_id="toy", rng_seed=7),
        "57eafe791c496dcff4750907f7324901a6f9bc8e9f239abcf43da851f254b7a7",
        "5e440bfe4c88e18362ce84d89fa3df0d01dd65b9bbee486fbf7cdeedb89cdb10",
    ),
    (
        dict(sessions=200, adv_ratio=0.5, group_id="toy", rng_seed=11, latency_range_ms=(5.0, 25.0)),
        "97f62f88aaa5fdd0f7de35048fb16c0c96d3ea515510d3f947b5499c5b7c877c",
        "d20b9e382b899eebdefcf9bfeef6d1d9fab1b80e53f3b1cf69cf9535f1a9420b",
    ),
    (
        dict(sessions=24, adv_ratio=0.5, group_id="p256", rng_seed=3),
        "8edb7410127806a406540e37d73da27bb008f5ded9eca64b042dd2bbc3b70b75",
        "1b22051328fe0ccf752831896d05eff4b932fa91d3eb1beeb8c1f2ee75811d42",
    ),
]


GOLDEN_CLI = {
    "toy": {
        "entity.pub.json": "7ba9d7e265eeef6ec35878f2147afc0c55f2340f9a8bc30600ca463efab412cf",
        "entity.key.json": "ae1d57ec47475fe967c437441b940fc764209b4d31f423eae0932cdd604abd55",
        "twin.pub.json": "74753efb2c9a5b7e3ea8f6b8128da361dc1763772141826dfeb99938940ed69c",
        "twin.key.json": "30b1acbc52e461f81876db32933a9e6a9f749d05a8a2c297694d66d67f67ba74",
        "authenticate": "6e138b4ca9907b8cb9946ab5b03f51d3a75f7fdb1c0ffc5a952bf0186933a96b",
    },
    "p256": {
        "entity.pub.json": "bd3452df2ccb4f84473c6e0a03ac83b5c50e7fd104a5fd202a517668053bdbeb",
        "entity.key.json": "58335e4c4949f65879e2145736b62c07b3a07406ebe188e221f4aa1fb7b48005",
        "twin.pub.json": "129059e46854468ba19116693ae8f7bc75155b150f3799c33d380d90bdb2ebfe",
        "twin.key.json": "ec005e24edbe8bc6219ee22949555781f8ea25cea5f0dea4a826f4631bc2007b",
        "authenticate": "07b04985f67f94c1371172d291c36402061018e6a5f2393ec341d15f59da329e",
    },
}

GOLDEN_WIRE = {
    "toy": "79314bb74f3557d292e459fa58341b39ee2bd4f3f4d201584b7ddb0b6a8b4bda",
    "p256": "ae4662cb3ba0a75a50807d0c184bb644ec9a7455ccf2264627444ad5c700f896",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "config, json_digest, csv_digest",
    GOLDEN,
    ids=[f"{c['group_id']}-seed{c['rng_seed']}" for c, _, _ in GOLDEN],
)
def test_golden_report_digests(config, json_digest, csv_digest):
    report = run_campaign(CampaignConfig(**config))
    assert all(report.aggregates["kind_counts"][kind] > 0 for kind in KIND_ORDER)
    assert _sha256(report.to_json()) == json_digest
    assert _sha256(report.to_csv()) == csv_digest


def test_derailed_honest_session_raises(monkeypatch):
    # a twin that answers with a wrong z makes the entity reject the proof,
    # so the honest exchange never reaches the identity proof
    respond = TwinSession._respond

    def wrong_z(self, ch):
        return Response((respond(self, ch).z + 1) % self.group.q)

    cfg = CampaignConfig(sessions=4, group_id="toy", rng_seed=5)
    env = build_env(cfg)
    monkeypatch.setattr(TwinSession, "_respond", wrong_z)
    with pytest.raises(SimulationError):
        run_session(cfg, HONEST, _spawn_rng(5, "session/0"), env)
    with pytest.raises(SimulationError):
        run_campaign(cfg)


@pytest.mark.parametrize("group_id", sorted(GOLDEN_CLI))
def test_golden_cli_digests(group_id, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["keygen", "--seed", "golden", "--group", group_id, "--out", "keys"]) == 0
    assert main(["register", "--entity-pub", "keys/entity.pub.json", "--twin-pub",
                 "keys/twin.pub.json", "--registry", "reg.ndjson", "--time", "1700000000"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "keys" / name).read_bytes()).hexdigest()
        for name in ("entity.pub.json", "entity.key.json", "twin.pub.json", "twin.key.json")
    }
    authenticate = ["authenticate", "--entity-key", "keys/entity.key.json", "--twin-key",
                    "keys/twin.key.json", "--registry", "reg.ndjson"]
    capsys.readouterr()
    assert main(authenticate) == 0
    digests["authenticate"] = _sha256(capsys.readouterr().out)
    assert digests == GOLDEN_CLI[group_id]


@pytest.mark.parametrize("group_id", sorted(GOLDEN_WIRE))
def test_golden_wire_bytes(group_id):
    group = get_group(group_id)
    messages = [
        Commit(group.exp(group.g, 5)),
        Challenge(group.q - 1),
        Response(group.q // 3),
        IdentityProof(7, group.exp(group.g, 11)),
        Verdict(True),
        Verdict(False),
        *(Verdict(False, reason) for reason in Reason),
    ]
    wire = b"".join(encode_message(group, msg) for msg in messages)
    assert hashlib.sha256(wire).hexdigest() == GOLDEN_WIRE[group_id]
