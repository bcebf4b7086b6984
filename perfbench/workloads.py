"""The benchmark's workloads. Plain data, so that run.py can check a name
without importing przkbind; worker.py runs them. README.md says why each
one exists and which layers it loads."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "campaign": rounds of run_campaign; "fleet": the benchmark's own session loop
    group_id: str
    round_sessions: int  # sessions per round: one campaign's, or the fleet loop's
    adv_ratio: float = 0.0
    devices: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign_p256", "campaign", "p256", round_sessions=500, adv_ratio=0.1),
        Workload("fleet_p256", "fleet", "p256", round_sessions=64, devices=256),
        Workload("adversarial_toy", "campaign", "toy", round_sessions=5000, adv_ratio=0.5),
    )
}
