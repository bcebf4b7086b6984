"""Acceptance suite: every release criterion, one test each, with its
tolerance pinned. Each test prints a PASS line (visible under pytest -s)
so a full run doubles as the acceptance report."""

import random
import time

import pytest

from przkbind.groups import get_group
from przkbind.identity import TwinKeyPair, derive_entity_keys, provision_identity
from przkbind.registration import Registry
from przkbind.protocol import (
    Challenge,
    Commit,
    EntitySession,
    IdentityProof,
    Phase,
    Response,
    Transcript,
    TwinSession,
    extract_secret,
    run_interactive_session,
    schnorr_response,
    schnorr_verify,
)
from przkbind.simulator import (
    HONEST,
    KIND_ORDER,
    CampaignConfig,
    run_campaign,
)
from przkbind.cli import main as cli_main

from conftest import T0, ScriptedRng
from test_protocol import _fuzz_machines


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def toy_fixture():
    toy = get_group("toy")
    keys = derive_entity_keys(provision_identity(b"fixture-7"), toy)
    twin = TwinKeyPair(3, toy.exp(toy.g, 3))
    record = Registry(toy).register(keys.pk_p, twin.pk_d, T0)
    return {"group": toy, "keys": keys, "twin": twin, "record": record}


def test_criterion_1_completeness_at_scale():
    """5000 honest production sessions: all accepted, all keys agree,
    and the campaign finishes inside 60 seconds."""
    config = CampaignConfig(
        sessions=5000, adv_ratio=0.0, group_id="p256", rng_seed=101,
        latency_range_ms=(10.0, 20.0),
    )
    started = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - started

    assert report.aggregates["honest_count"] == 5000
    assert report.aggregates["honest_accept_rate"] == 1.0
    assert report.aggregates["key_agreement_rate"] == 1.0
    assert all(m.accepted and m.key_agreement for m in report.sessions)
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    _passed(1, f"5000/5000 honest sessions accepted with key agreement in {elapsed:.1f}s")


def test_criterion_2_far_zero_across_attack_volumes():
    """False acceptance stays at exactly zero for every adversary kind, at
    the 4500/500 operating point and across the 100/500/1000/2000
    adversarial-attempt rows (>= 500 attempts per kind at the top row)."""
    rows = [
        (100, 1000, 0.1),
        (500, 5000, 0.1),   # the 4500/500 split
        (1000, 2500, 0.4),
        (2000, 4000, 0.5),
    ]
    for attempts, sessions, ratio in rows:
        config = CampaignConfig(
            sessions=sessions, adv_ratio=ratio, group_id="p256",
            rng_seed=200 + attempts, latency_range_ms=(10.0, 20.0),
        )
        report = run_campaign(config)
        agg = report.aggregates
        assert agg["adversarial_count"] == attempts
        assert agg["far"] == 0.0, f"nonzero FAR at {attempts} attempts"
        for kind in KIND_ORDER:
            assert agg["kind_counts"][kind] == attempts // 4
            assert agg["far_by_kind"][kind] == 0.0, f"{kind} accepted at {attempts} attempts"
        assert agg["honest_accept_rate"] == 1.0
        if attempts == 500:
            assert agg["honest_count"] == 4500
    _passed(2, "FAR == 0 for every adversary kind at 100/500/1000/2000 attempts")


def test_criterion_3_toy_exhaustive_schnorr_suite(toy_fixture):
    """Completeness over all (nonce, challenge, secret) combinations,
    extraction from every forked transcript pair, and a blind-guess
    acceptance rate of exactly 1/11, all inside 5 seconds."""
    toy = toy_fixture["group"]
    started = time.perf_counter()

    completeness_checked = 0
    for sk_d in range(1, 11):
        pk_d = toy.exp(toy.g, sk_d)
        for r in range(11):
            alpha = toy.exp(toy.g, r)
            for c in range(11):
                z = schnorr_response(toy, r, c, sk_d)
                assert schnorr_verify(toy, pk_d, alpha, c, z)
                assert pow(2, z, 23) == alpha * pow(pk_d, c, 23) % 23  # modular oracle
                completeness_checked += 1
    assert completeness_checked == 11 * 11 * 10

    extractions = 0
    for sk_d in range(1, 11):
        for r in range(11):
            alpha = toy.exp(toy.g, r)
            for c1 in range(11):
                for c2 in range(c1 + 1, 11):
                    t1 = Transcript(alpha=alpha, c=c1, z=schnorr_response(toy, r, c1, sk_d))
                    t2 = Transcript(alpha=alpha, c=c2, z=schnorr_response(toy, r, c2, sk_d))
                    assert extract_secret(toy, t1, t2) == sk_d
                    extractions += 1
    assert extractions == 10 * 11 * 55

    for c in (0, 4, 10):
        accepting = sum(
            schnorr_verify(toy, 8, toy.exp(toy.g, r), c, z)
            for r in range(11)
            for z in range(11)
        )
        assert accepting / 121 == 1 / 11

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"toy suite took {elapsed:.1f}s"
    _passed(3, f"completeness, extraction, and 1/11 blind-guess rate in {elapsed:.2f}s")


def test_criterion_4_replay_rejection(toy_fixture):
    """Exhaustive toy check: a recorded response fails against every fresh
    challenge differing from the recorded one; a production campaign of
    500 replay attempts yields zero acceptances."""
    toy = toy_fixture["group"]
    twin = toy_fixture["twin"]
    checked = 0
    for r in range(11):
        alpha = toy.exp(toy.g, r)
        for c in range(11):
            z = schnorr_response(toy, r, c, twin.sk_d)
            assert schnorr_verify(toy, twin.pk_d, alpha, c, z)
            for fresh in range(11):
                if fresh != c:
                    assert not schnorr_verify(toy, twin.pk_d, alpha, fresh, z)
                    checked += 1
    assert checked == 11 * 11 * 10

    config = CampaignConfig(
        sessions=500, adv_ratio=1.0, group_id="p256", rng_seed=404,
        adversary_mix={"replay": 1.0}, latency_range_ms=(10.0, 20.0),
    )
    report = run_campaign(config)
    assert report.aggregates["kind_counts"]["replay"] == 500
    assert report.aggregates["kind_accepted"]["replay"] == 0
    assert report.aggregates["far"] == 0.0
    _passed(4, "all stale-challenge replays rejected; 0/500 production replays accepted")


def test_criterion_5_key_derivation_identity(toy_fixture):
    """The two derivation paths agree bitwise: on the fixed toy vector
    (shared point 9) and over 1000 randomized sessions in each group."""
    toy = toy_fixture["group"]
    # fixed vector: twin side (13*4)^3 mod 23 and entity side 8^(7+2) mod 23
    assert (13 * 4 % 23) ** 3 % 23 == 9
    assert pow(8, 9, 23) == 9

    d = TwinSession(toy, toy_fixture["twin"], toy_fixture["record"], ScriptedRng(randranges=[5]))
    d.commit()
    d.respond(Challenge(4))
    d.verify_identity(IdentityProof(7, 4))
    dk = d.session_key
    p = EntitySession(toy, toy_fixture["keys"], toy_fixture["record"], ScriptedRng(randranges=[2]))
    ch = p.challenge(Commit(9))
    p.verify_response(Response(schnorr_response(toy, 5, ch.c, 3)))
    pk = p.session_key
    assert dk.k_pd == pk.k_pd

    for group_id in ("toy", "p256"):
        group = get_group(group_id)
        keys = derive_entity_keys(provision_identity(b"agreement-entity"), group)
        sk_d = 7 if group_id == "toy" else random.Random(5).randrange(1, group.q)
        twin_pair = TwinKeyPair(sk_d, group.exp(group.g, sk_d))
        record = Registry(group).register(keys.pk_p, twin_pair.pk_d, T0)
        for seed in range(1000):
            p = EntitySession(group, keys, record, random.Random(seed))
            d = TwinSession(group, twin_pair, record, random.Random(100_000 + seed))
            run_interactive_session(p, d)
            assert p.phase is Phase.KEY_ESTABLISHED and d.phase is Phase.KEY_ESTABLISHED
            assert p.session_key.k_pd == d.session_key.k_pd
    _passed(5, "derivation paths agree on the fixed vector and 1000 sessions per group")


def test_criterion_6_byte_identical_reports(tmp_path, monkeypatch, capsys):
    """Identical seed and config give byte-identical JSON and CSV reports
    across reruns, in both groups."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRZKBIND_CONFIG", raising=False)
    for group_id, sessions in (("toy", 200), ("p256", 150)):
        args = [
            "simulate", "--sessions", str(sessions), "--adv-ratio", "0.1",
            "--latency", "10:20", "--seed", "606", "--group", group_id,
        ]
        assert cli_main(args + ["--out", f"{group_id}-a"]) == 0
        assert cli_main(args + ["--out", f"{group_id}-b"]) == 0
        capsys.readouterr()
        a = (tmp_path / f"{group_id}-a.json").read_bytes()
        assert a == (tmp_path / f"{group_id}-b.json").read_bytes()
        assert (tmp_path / f"{group_id}-a.csv").read_bytes() == (
            tmp_path / f"{group_id}-b.csv"
        ).read_bytes()
    _passed(6, "reports byte-identical across reruns")


def test_criterion_7_state_machine_safety(toy_fixture):
    """Exhaustive message-sequence fuzzing to depth 6: no input sequence
    reaches key establishment without the party's verification passing."""
    env = {
        "group": toy_fixture["group"],
        "keys": toy_fixture["keys"],
        "twin": toy_fixture["twin"],
        "record": toy_fixture["record"],
    }
    outcomes = _fuzz_machines(env, max_depth=6)
    # the honest paths must be reachable, otherwise the fuzz proves nothing
    assert outcomes["p_established"] > 0
    assert outcomes["d_established"] > 0
    _passed(
        7,
        "depth-6 fuzz: every key establishment passed verification "
        f"(entity paths={outcomes['p_established']}, twin paths={outcomes['d_established']})",
    )


def test_criterion_8_exact_virtual_latency_accounting():
    """With latency pinned at 10 ms, the four delayed authentication
    messages account for exactly 40 ms of virtual time per session."""
    config = CampaignConfig(
        sessions=50, adv_ratio=0.0, group_id="toy", rng_seed=808,
        latency_range_ms=(10.0, 10.0),
    )
    report = run_campaign(config)
    assert all(m.auth_latency_ms == 40.0 for m in report.sessions)
    assert report.aggregates["mean_auth_latency_ms"] == 40.0
    assert report.aggregates["p95_auth_latency_ms"] == 40.0
    _passed(8, "fixed 10 ms latency yields exactly 40 ms auth latency per session")
