"""Put tracer spans around przkbind's public names for the traced run.

Each name is wrapped where its callers look it up: a function imported
with ``from .groups import hash_to_scalar`` is a separate global in every
importing module, so it is replaced in each of them. The functions
``cli`` imports are left alone, so that their time counts as the
``cli.report`` span's own. Methods are replaced on the public classes, and
group operations on the group objects that ``get_group`` hands out.
Nothing is restored: a traced run is its own process.
"""

from __future__ import annotations

from tracer import Tracer

EXP_GENERATOR = "groups.exp_generator"
EXP_LONG_LIVED = "groups.exp_long_lived"
EXP_FRESH_BASE = "groups.exp_fresh_base"

# Module-level function name -> span name, wherever the name is bound.
FUNCTION_SPANS = {
    "hash_to_scalar": "groups.hash",
    "hash_h1_bytes": "groups.hash",
    "hash_h2": "groups.hash",
    "encode_message": "protocol.wire_encode",
    "decode_message": "protocol.wire_decode",
    "verify_record": "registration.verify_record",
    "derive_entity_keys": "identity.derive_entity_keys",
    "twin_keygen": "identity.twin_keygen",
    "attack_replay": "adversary.replay",
    "attack_impersonate_twin": "adversary.impersonate_twin",
    "attack_mitm_tamper": "adversary.mitm_tamper",
    "attack_kci": "adversary.kci_impersonate_physical",
    "build_env": "simulator.build_env",
    "run_session": "simulator.run_session",
    "compute_aggregates": "simulator.compute_aggregates",
}


def exp_path(group, base, long_lived) -> str:
    """Name an exp by its base: the generator, a long-lived binding key, or
    anything else (a fresh base)."""
    if base == group.g:
        return EXP_GENERATOR
    try:
        if base in long_lived:
            return EXP_LONG_LIVED
    except TypeError:  # an unhashable base is never a registered key
        pass
    return EXP_FRESH_BASE


def instrument(tracer: Tracer) -> None:
    """Wrap every traced przkbind name in this process."""
    import przkbind
    from przkbind import adversary, groups, identity, protocol, registration, simulator

    long_lived = {}  # group id -> public keys of every binding registered so far

    for group_id in ("toy", "p256"):
        group = groups.get_group(group_id)
        keys = long_lived.setdefault(group.group_id, set())
        group.exp = tracer.wrap(
            group.exp, lambda base, e, group=group, keys=keys: exp_path(group, base, keys)
        )
        for op in ("mul", "encode", "decode"):
            setattr(group, op, tracer.wrap(getattr(group, op), f"groups.{op}"))

    register = registration.Registry.register

    def register_and_note(self, pk_p, pk_d, t):
        record = register(self, pk_p, pk_d, t)
        long_lived[self.group.group_id].update((record.pk_p, record.pk_d))
        return record

    registration.Registry.register = tracer.wrap(register_and_note, "registration.register")

    for module in (przkbind, groups, identity, registration, protocol, adversary, simulator):
        for attr, span in FUNCTION_SPANS.items():
            fn = vars(module).get(attr)
            if fn is not None:
                setattr(module, attr, tracer.wrap(fn, span))

    for cls in (protocol.EntitySession, protocol.TwinSession):
        cls.__init__ = tracer.wrap(cls.__init__, "protocol.session_new")
        cls.receive = tracer.wrap(cls.receive, "protocol.receive")
        cls.receive_bytes = tracer.wrap(cls.receive_bytes, "protocol.receive_bytes")
    for method in ("to_json", "to_csv"):
        cls = simulator.CampaignReport
        setattr(cls, method, tracer.wrap(getattr(cls, method), f"simulator.{method}"))
