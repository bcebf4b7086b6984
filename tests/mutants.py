"""Mutation gate: each security check of the session protocol, the config and report rules, the
P-256 point's equality and finaliser, exp's answer for a multiple of q, and exp's wipe and reuse of
its scalar BIGNUM, has tests that fail without it.

MUTANTS lists textual mutants as (file under src/przkbind, exact text, replacement, test ids).
For each one, the runner copies src/ to a temporary directory, requires the text to occur there
exactly once, applies the replacement and runs only the named tests against the copy; every named
test must fail. Unmutated, the named tests must all pass. A refactor that moves a check updates
its entry here; an entry is never removed to get a pass.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

P = "tests/test_protocol.py"
S = "tests/test_simulator.py"
C = "tests/test_cli.py"
G = "tests/test_groups.py"
A = "tests/test_adversary.py"
SAFETY = f"{P}::TestStateMachineSafety"
ONE_PATH = f"{P}::test_every_check_rejects_through_one_path"

MUTANTS = [
    (
        "protocol.py",  # the challenge hash without the session nonce: a replay meets its old challenge
        "self.binding.zeta, nonce)",
        "self.binding.zeta)",
        ["tests/test_adversary.py::TestReplay::test_rejection_reason_is_bad_proof",
         "tests/test_adversary.py::TestReplay::test_production_replays_never_accepted",
         "tests/test_simulator.py::TestSessions::test_replay_session_production_rejected"],
    ),
    (
        "protocol.py",  # _fail keeps the session key
        "        self.session_key = None\n        self._nonce = None\n",
        "        self._nonce = None\n",
        [f"{SAFETY}::test_reject_verdict_erases_established_key",
         f"{SAFETY}::test_twin_rejecting_a_tampered_identity_proof_fails_the_keyed_entity",
         f"{P}::test_arbitrary_bytes_never_key_an_unverified_party"],
    ),
    (
        "protocol.py",  # _fail keeps the ephemeral nonce
        "        self.session_key = None\n        self._nonce = None\n",
        "        self.session_key = None\n",
        [f"{SAFETY}::test_timeout_event",
         f"{SAFETY}::test_out_of_range_challenge_fails_like_its_malformed_bytes",
         f"{ONE_PATH}[challenge out of range]",
         f"{SAFETY}::test_no_path_to_key_establishment_skips_verification"],
    ),
    (
        "protocol.py",  # a step that declines its message is answered with silence: the session stays open
        "        return self._fail(reason) if reply is None else [reply]\n",
        "        return [] if reply is None else [reply]\n",
        [ONE_PATH,
         f"{P}::TestTwinSession::test_identity_verification_vectors",
         f"{P}::TestEntitySession::test_verify_response_failure_is_terminal",
         f"{P}::TestEntitySession::test_non_member_commitment_is_degenerate"],
    ),
    (
        "protocol.py",  # _respond keeps the nonce after answering
        "        self._nonce = None\n        self.phase = Phase.RESPONSE_SENT\n",
        "        self.phase = Phase.RESPONSE_SENT\n",
        [f"{P}::TestTwinSession::test_respond_vector_and_nonce_erasure",
         f"{P}::TestEndToEnd::test_honest_session"],
    ),
    (
        "protocol.py",  # a zero h_sp passes to the identity equation (and its exp is counted)
        "    if h_sp % group.q == 0:\n        return False\n",
        "",
        [f"{P}::TestSchnorrRelations::test_identity_check_vectors",
         "tests/test_golden.py::test_golden_report_digests[toy-seed7]"],
    ),
    (
        "protocol.py",  # an identity-element commitment is challenged
        " or commit.alpha == self.group.identity",
        "",
        [f"{P}::TestEntitySession::test_identity_commitment_is_degenerate",
         f"{ONE_PATH}[degenerate commitment]"],
    ),
    (
        "protocol.py",  # a challenge outside [0, q) is answered
        "if not 0 <= ch.c < self.group.q:",
        "if False:",
        [f"{SAFETY}::test_out_of_range_challenge_fails_like_its_malformed_bytes",
         f"{ONE_PATH}[challenge out of range]"],
    ),
    (
        "protocol.py",  # _verify_identity without is_member(R_p)
        "self.group.is_member(proof.r_p_pub) and ",
        "",
        [f"{ONE_PATH}[non-member share]",
         f"{P}::TestTwinSession::test_non_member_share_with_the_true_identity_hash_is_rejected"],
    ),
    (
        "protocol.py",  # a reject verdict that reaches an established party is ignored
        "            if not msg.accept:\n",
        "            if not msg.accept and self.phase is not Phase.KEY_ESTABLISHED:\n",
        [f"{SAFETY}::test_reject_verdict_erases_established_key",
         f"{SAFETY}::test_twin_rejecting_a_tampered_identity_proof_fails_the_keyed_entity"],
    ),
    (
        "protocol.py",  # the binding record's zeta is not recomputed
        "if not verify_record(group, binding):",
        "if False:",
        [f"{P}::TestEntitySession::test_binding_digest_recomputed_before_first_use",
         f"{P}::TestEntitySession::test_record_moved_to_another_time_refused"],
    ),
    (
        "protocol.py",  # EntitySession._challenge without is_member(alpha)
        "not self.group.is_member(commit.alpha) or ",
        "",
        [f"{P}::TestEntitySession::test_non_member_commitment_is_degenerate",
         f"{ONE_PATH}[non-member commitment]"],
    ),
    (
        "simulator.py",  # a config keeps its integer bounds and weights: a report then depends on how it was made
        "    return float(value)\n",
        "    return value\n",
        [f"{S}::TestConfig::test_made_in_the_form_reports_list_it",
         f"{C}::test_keywords_file_and_flags_write_one_report"],
    ),
    (
        "simulator.py",  # sessions has no upper bound: more rows than a list holds end in a traceback
        "not 1 <= self.sessions <= sys.maxsize",
        "not 1 <= self.sessions",
        [f"{S}::TestConfig::test_sessions_bounded_by_the_largest_list",
         f"{C}::TestSimulate::test_sessions_past_sys_maxsize_is_config_error"],
    ),
    (
        "simulator.py",  # an honest row's key_establish_ms may differ from its auth_latency_ms
        "            if m.key_establish_ms not in (None, m.auth_latency_ms):",
        "            if False:",
        [f"{S}::TestReportSerialization::test_honest_key_time_is_its_auth_latency",
         f"{C}::TestReport::test_malformed_report_is_integrity_failure[honest_key_time_off_its_auth_latency]"],
    ),
    (
        "simulator.py",  # a report's stored aggregates are read as they stand: a forged FAR reprints as the file has it
        "        for metric, value in aggregates.items():",
        "        for metric, value in ():",
        [f"{S}::TestReportSerialization::test_reader_checks_aggregates_and_allocation[forged_far]",
         f"{C}::TestReport::test_hand_edited_aggregate_detected"],
    ),
    (
        "simulator.py",  # a report's unknown keys are read past: its reprint silently drops them
        "    if len(obj) != len(known):\n",
        "    if False:\n",
        [f"{S}::TestReportSerialization::test_reader_refuses_unknown_content[extra_aggregate]",
         f"{S}::TestReportSerialization::test_reader_refuses_unknown_content[extra_row_field]",
         f"{C}::TestReport::test_unknown_content_is_integrity_failure"],
    ),
    (
        "simulator.py",  # a report row's unknown keys, or its ops', are never looked for
        "        if len(obj) + len(ops) != len(_ROW_TYPES) + 3:",
        "        if False:",
        [f"{S}::TestReportSerialization::test_reader_refuses_unknown_content[extra_row_field]",
         f"{S}::TestReportSerialization::test_reader_refuses_unknown_content[extra_ops_party]",
         f"{C}::TestReport::test_unknown_content_is_integrity_failure[extra_row_field]"],
    ),
    (
        "simulator.py",  # a report's kind counts need not be what its config allocates
        '        if aggregates["kind_counts"] != allocated:',
        "        if False:",
        [f"{S}::TestReportSerialization::test_reader_checks_aggregates_and_allocation[config_allocates_other_kinds]",
         f"{C}::test_config_that_allocates_other_kinds_is_integrity_failure"],
    ),
    (
        "simulator.py",  # an honest session counts as accepted when both parties are keyed, whatever their keys
        "p.session_key.k_pd == d.session_key.k_pd",
        "True",
        [f"{S}::TestSessions::test_honest_row_when_keys_disagree",
         f"{C}::test_campaign_with_disagreeing_keys_passes_report"],
    ),
    (
        "simulator.py",  # a made config's mappings take edits again: a zeroed mix reaches run_campaign
        "    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse\n",
        "",
        [f"{S}::TestConfig::test_mappings_refuse_edits[setitem]",
         f"{S}::TestConfig::test_mappings_refuse_edits[update]",
         f"{S}::TestConfig::test_zeroed_mix_refused_before_the_campaign_runs"],
    ),
    (
        "groups.py",  # two P-256 points are equal whatever EC_POINT_cmp says: every Schnorr and identity equation holds
        "lib.EC_POINT_cmp(group, self._ptr, other._ptr, ctx) == 0",
        "lib.EC_POINT_cmp(group, self._ptr, other._ptr, ctx) is not None",
        [f"{A}::TestImpersonateTwin::test_production_impersonation_never_accepted",
         f"{A}::TestKci::test_production_kci_never_accepted",
         f"{G}::TestP256::test_points_compare_through_libcrypto"],
    ),
    (
        "groups.py",  # a dropped P-256 point keeps its EC_POINT: every exp, mul and decode leaks one
        "        self._free(self._ptr)",
        "        pass",
        [f"{G}::TestP256::test_repeated_operations_do_not_grow_memory",
         f"{G}::TestP256::test_honest_session_work_count"],
    ),
    (
        "groups.py",  # exp multiplies by a multiple of q: libcrypto's infinity comes back as a P256Point, not None
        "        if point is None or not any(data):",
        "        if point is None:",
        [f"{G}::TestP256::test_exp_by_a_multiple_of_q_is_infinity_without_libcrypto",
         f"{G}::TestP256::test_group_order_annihilates_generator"],
    ),
    (
        "groups.py",  # exp leaves its scalar, which may be a secret key, in the scratch BIGNUM
        "                lib.BN_clear(scalar)",
        "                pass",
        [f"{G}::TestP256::test_exp_wipes_the_scratch_scalar",
         f"{G}::TestP256::test_honest_session_work_count"],
    ),
    (
        "groups.py",  # exp loads its scalar into a new BIGNUM, never cleared or freed, in place of the scratch one
        "lib.BN_bin2bn(data, 32, scalar)",
        "lib.BN_bin2bn(data, 32, None)",
        [f"{G}::TestP256::test_repeated_operations_do_not_grow_memory",
         f"{G}::TestP256::test_honest_session_work_count"],
    ),
]


def _outcomes(src: Path, tests) -> dict:
    """Run the named tests against the package in src: each named test -> the set of its outcomes
    ('PASSED', 'FAILED', 'ERROR'), one per node, as a named test may be a parametrized one's base id."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import przkbind; print(przkbind.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"error: przkbind was imported from {where}, not from the copy in {src}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    outcomes = {test: set() for test in tests}
    for line in run.stdout.splitlines():  # the short summary: "<OUTCOME> <node id>[ - <message>]"
        outcome, _, node = line.partition(" ")
        node = node.split(" - ")[0]
        for test in tests:
            if outcome in ("PASSED", "FAILED", "ERROR") and (node == test or node.startswith(test + "[")):
                outcomes[test].add(outcome)
    return outcomes


def main() -> int:
    tests = sorted({test for *_, killers in MUTANTS for test in killers})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        baseline = _outcomes(src, tests)
        broken = [test for test in tests if baseline[test] != {"PASSED"}]
        if broken:
            print(f"error: unmutated, these named tests do not pass: {broken}")
            return 1
        survivors = 0
        for index, (name, text, replacement, killers) in enumerate(MUTANTS):
            if len(set(killers)) < 2:
                print(f"error: mutant {index} names {len(set(killers))} tests; each needs at least 2")
                return 1
            path = src / "przkbind" / name
            original = path.read_text()
            if original.count(text) != 1:
                print(f"error: mutant {index}: its text occurs {original.count(text)} times in {name}, not once")
                return 1
            path.write_text(original.replace(text, replacement))
            try:
                outcomes = _outcomes(src, killers)
            finally:
                path.write_text(original)
            alive = [test for test in killers if not outcomes[test] & {"FAILED", "ERROR"}]
            survivors += bool(alive)
            print(f"mutant {index} ({name}: {text.strip()[:50]!r}): "
                  + (f"SURVIVED {alive}" if alive else f"killed by all {len(killers)} named tests"))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
