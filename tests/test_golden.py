"""Golden reports: fixed seeds must keep producing byte-identical output.

The digests pin ``to_json()`` and ``to_csv()`` of small campaigns in both
groups. ``adv_ratio`` 0.5 with the default mix runs every attack kind, so
the honest session, all four adversaries, the virtual clock and the report
writers are covered. A digest changes only when the reports do; update it
only for a deliberate change to the report format or the session rng draws.
"""

import hashlib

import pytest

from przkbind.protocol import Response, TwinSession
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
    respond = TwinSession.respond

    def wrong_z(self, ch):
        return Response((respond(self, ch).z + 1) % self.group.q)

    cfg = CampaignConfig(sessions=4, group_id="toy", rng_seed=5)
    env = build_env(cfg)
    monkeypatch.setattr(TwinSession, "respond", wrong_z)
    with pytest.raises(SimulationError):
        run_session(cfg, HONEST, _spawn_rng(5, "session/0"), env)
    with pytest.raises(SimulationError):
        run_campaign(cfg)
