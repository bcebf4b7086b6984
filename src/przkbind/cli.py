"""Operator command line: provision keys, register bindings, run a single
authentication, execute campaigns, and inspect reports.

Exit codes: 0 success, 1 usage/config error, 2 runtime error,
3 verification or integrity failure.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

import click

from .groups import _GROUPS, GroupError, get_group
from .identity import (
    PhysicalIdentity,
    TwinKeyPair,
    derive_entity_keys,
    provision_identity,
    twin_keygen,
)
from .protocol import (
    EntitySession,
    ProtocolError,
    Transcript,
    TwinSession,
    pump,
)
from .registration import (
    RegistrationError,
    Registry,
    RegistryIOError,
    load_registry,
    read_fields,
    save_registry,
    write_atomic,
    write_fields,
)
from .simulator import (
    KIND_ORDER,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SimulationError,
    _spawn_rng,
    run_campaign,
)

class IntegrityFailure(Exception):
    """A verification step failed, or a key or report file does not hold what it must."""


def _load_json(path: Path, error: Callable[[str], Exception]):
    """Parse a JSON file; bytes that are not UTF-8 JSON raise ``error(message)``."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise error(f"{path}: not a UTF-8 JSON file: {exc}") from None


def _load_key_file(path: Path, *names: str) -> dict:
    """The group and the named fields of a key file, decoded; a missing or
    malformed field is an integrity failure naming file and field."""
    obj = _load_json(path, IntegrityFailure)
    try:
        group = read_fields(obj, ("group",), None)["group"]
        return {"group": group, **read_fields(obj, names, group)}
    except ValueError as exc:
        raise IntegrityFailure(f"{path}: {exc}") from None


@click.group()
def cli() -> None:
    """Physically rooted zero-knowledge twin binding: keys, registration,
    authentication sessions, and adversarial campaign simulation."""


@cli.command()
@click.option("--seed", required=True, help="Provisioning seed; fixed seed, fixed keys.")
@click.option("--group", "group_id", type=click.Choice(list(_GROUPS), case_sensitive=False), default="p256",
              show_default=True, help="Group backend.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def keygen(seed: str, group_id: str, out_dir: Path) -> None:
    """Provision the entity identity and the twin key pair into key files."""
    group = get_group(group_id)
    identity = provision_identity(seed)
    keys = derive_entity_keys(identity, group)
    twin = twin_keygen(group, _spawn_rng(seed, "twin-keygen"))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {  # name -> (fields, secret)
        "entity.pub.json": ({"group": group, "pk_p": keys.pk_p}, False),
        "entity.key.json": ({"group": group, "s_p": identity.s_p, "source": identity.source}, True),
        "twin.pub.json": ({"group": group, "pk_d": twin.pk_d}, False),
        "twin.key.json": ({"group": group, "sk_d": twin.sk_d}, True),
    }
    for name, (values, secret) in files.items():
        write_atomic(out_dir / name, json.dumps(write_fields(group, values), indent=2) + "\n", secret)
        click.echo(f"wrote {out_dir / name}" + (" (secret, permissions 0600)" if secret else ""))


@cli.command()
@click.option("--entity-pub", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--twin-pub", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--registry", "registry_path", required=True, type=click.Path(path_type=Path))
@click.option("--time", "timestamp", type=click.IntRange(0, 2**64 - 1), help="Binding timestamp (default: now).")
def register(entity_pub: Path, twin_pub: Path, registry_path: Path, timestamp: int | None) -> None:
    """Mint the binding record for a key pair and append it to the registry."""
    entity_obj = _load_key_file(entity_pub, "pk_p")
    twin_obj = _load_key_file(twin_pub, "pk_d")
    if entity_obj["group"] is not twin_obj["group"]:
        raise click.UsageError("entity and twin key files use different groups")
    group = entity_obj["group"]
    pk_p, pk_d = entity_obj["pk_p"], twin_obj["pk_d"]
    if timestamp is None:
        timestamp = int(time.time())
    if registry_path.exists():
        registry = load_registry(group, registry_path)
    else:
        registry = Registry(group)
    record = registry.register(pk_p, pk_d, timestamp)
    save_registry(registry, registry_path)
    click.echo(f"bound pk_p={group.encode(pk_p).hex()[:16]}… pk_d={group.encode(pk_d).hex()[:16]}… t={timestamp}")
    click.echo(f"zeta={record.zeta.hex()}")


@cli.command()
@click.option("--entity-key", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--twin-key", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--registry", "registry_path", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--seed", default="authenticate", show_default=True, help="Session randomness seed.")
def authenticate(entity_key: Path, twin_key: Path, registry_path: Path, seed: str) -> None:
    """Run one local authentication session and print its transcript."""
    entity_obj = _load_key_file(entity_key, "s_p", "source")
    twin_obj = _load_key_file(twin_key, "sk_d")
    if entity_obj["group"] is not twin_obj["group"]:
        raise click.UsageError("entity and twin key files use different groups")
    group = entity_obj["group"]
    identity = PhysicalIdentity(entity_obj["s_p"], entity_obj["source"])
    keys = derive_entity_keys(identity, group)
    sk_d = twin_obj["sk_d"]
    twin = TwinKeyPair(sk_d, group.exp(group.g, sk_d))

    registry = load_registry(group, registry_path)
    record = registry.get(keys.pk_p, twin.pk_d)
    if record is None:
        raise IntegrityFailure("no binding record for this key pair in the registry")

    p = EntitySession(group, keys, record, _spawn_rng(seed, "entity"))
    d = TwinSession(group, twin, record, _spawn_rng(seed, "twin"))

    transcript = Transcript()

    def hop(recipient, msg):
        who, sender = ("D", d) if recipient is p else ("P", p)
        label = msg.label.replace("_", " ")
        click.echo(f"{who}: -> {label:<17} phase={sender.phase.value}")
        transcript.note(msg)
        return recipient.receive(msg)

    labels = pump(p, d, hop)
    click.echo(f"P terminal phase: {p.phase.value}")
    click.echo(f"D terminal phase: {d.phase.value}")
    # a session with no virtual clock: every message is at 0.0 ms
    click.echo(json.dumps({**transcript.to_dict(group), "timestamps": [[label, 0.0] for label in labels]}))
    accepted = transcript.verdict is not None and transcript.verdict.accept
    if accepted and p.session_key and d.session_key and p.session_key.k_pd == d.session_key.k_pd:
        click.echo("session established: keys agree")
    else:
        raise IntegrityFailure(
            f"authentication failed: {transcript.verdict.reason.name if transcript.verdict and transcript.verdict.reason else 'no verdict'}"
        )


def _parse_latency(value: str) -> float | list[float]:
    """--latency as a config's latency_range_ms: one number, or the list of its ':'-separated numbers."""
    try:
        parts = [float(part) for part in value.split(":")]
    except ValueError:
        raise click.UsageError(f"--latency expects 'low:high' or a single value, got {value!r}") from None
    return parts[0] if len(parts) == 1 else parts


def _parse_mix(value: str) -> dict:
    """--mix as a config's adversary_mix; an item without '=' has the weight '', which is no number."""
    pairs = [item.partition("=") for item in value.split(",") if item]
    try:
        return {kind.strip(): float(weight) for kind, _, weight in pairs}
    except ValueError:
        raise click.UsageError(f"--mix expects kind=weight pairs with numeric weights, got {value!r}") from None


@cli.command()
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              envvar="PRZKBIND_CONFIG", help="Campaign config JSON (default: $PRZKBIND_CONFIG).")
@click.option("--sessions", type=int, default=None)
@click.option("--adv-ratio", type=float, default=None)
@click.option("--latency", default=None, help="Per-message delay in ms: 'low:high' or one value.")
@click.option("--seed", type=int, default=None)
@click.option("--group", "group_id", default=None)
@click.option("--mix", default=None, help="Adversary mix, e.g. 'replay=1,mitm_tamper=2'.")
@click.option("--out", "out_prefix", default="report", show_default=True)
def simulate(config_path, sessions, adv_ratio, latency, seed, group_id, mix, out_prefix):
    """Run a session campaign and write JSON and CSV reports."""
    base: dict = {}
    if config_path is not None:
        base = _load_json(config_path, partial(ConfigError, "config"))
        if not isinstance(base, dict):
            raise ConfigError("config", f"{config_path}: must be a JSON object")
    flags = {
        "sessions": sessions,
        "adv_ratio": adv_ratio,
        "latency_range_ms": None if latency is None else _parse_latency(latency),
        "rng_seed": seed,
        "group_id": group_id,
        "adversary_mix": None if mix is None else _parse_mix(mix),
    }
    base.update((name, value) for name, value in flags.items() if value is not None)
    if "sessions" not in base:
        raise click.UsageError("a session count is required (--sessions or config file)")
    config = CampaignConfig.from_dict(base)
    report = run_campaign(config)

    json_path = Path(f"{out_prefix}.json")
    csv_path = Path(f"{out_prefix}.csv")
    write_atomic(json_path, report.to_json())
    write_atomic(csv_path, report.to_csv())

    _echo_summary(report.aggregates)
    click.echo(f"wrote {json_path} and {csv_path}")


def _fmt_rate(value) -> str:
    return "n/a" if value is None else f"{value * 100:.4f}%"


def _fmt_ms(value) -> str:
    return "n/a" if value is None else f"{value:.3f} ms"


_KIND_WIDTH = max(map(len, KIND_ORDER)) + 2  # the longest kind name and a gap


def _echo_summary(agg: dict) -> None:
    click.echo(f"{'sessions':<24}{agg['sessions']}")
    click.echo(f"{'honest / adversarial':<24}{agg['honest_count']} / {agg['adversarial_count']}")
    click.echo(f"{'honest acceptance':<24}{_fmt_rate(agg['honest_accept_rate'])}")
    click.echo(f"{'FAR (overall)':<24}{_fmt_rate(agg['far'])}")
    for kind in KIND_ORDER:
        click.echo(f"  {kind:<{_KIND_WIDTH}}{agg['kind_accepted'][kind]}/{agg['kind_counts'][kind]}")
    click.echo(f"{'mean auth latency':<24}{_fmt_ms(agg['mean_auth_latency_ms'])} (virtual)")
    click.echo(f"{'p95 auth latency':<24}{_fmt_ms(agg['p95_auth_latency_ms'])} (virtual)")
    click.echo(f"{'mean key establish':<24}{_fmt_ms(agg['mean_key_establish_ms'])} (virtual)")
    click.echo(f"{'energy proxy':<24}{agg['energy_proxy']:.1f} weighted ops")


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="table",
              show_default=True)
def report(in_path: Path, fmt: str) -> None:
    """Read a report, which CampaignReport.from_dict checks whole, and reprint it or its summary table."""
    try:  # ConfigError is a ValueError; an op count too large for a float overflows in the aggregates
        stored = CampaignReport.from_dict(_load_json(in_path, ValueError))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityFailure(f"malformed report file: {exc}") from exc
    if fmt == "table":
        return _echo_summary(stored.aggregates)
    click.echo(stored.to_json() if fmt == "json" else stored.to_csv(), nl=False)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except ConfigError as exc:
        click.echo(f"error: invalid config: {exc}", err=True)
        return 1
    except (IntegrityFailure, RegistryIOError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except click.Abort:
        click.echo("aborted", err=True)
        return 2
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 2
    except MemoryError:
        click.echo("error: out of memory", err=True)
        return 2
    except (ProtocolError, GroupError, RegistrationError, SimulationError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
