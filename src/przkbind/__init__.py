"""Physically rooted zero-knowledge binding between a device and its
digital twin: protocol library, adversarial session simulator, and CLI."""

from .groups import (
    Element,
    Group,
    GroupError,
    get_group,
    hash_h1_bytes,
    hash_h2,
    hash_to_scalar,
    scalar_random,
    scalar_random_nonzero,
)
from .identity import (
    EntityKeys,
    IdentitySource,
    PhysicalIdentity,
    TwinKeyPair,
    derive_entity_keys,
    provision_identity,
    twin_keygen,
)
from .registration import (
    BindingRecord,
    RegistrationError,
    Registry,
    RegistryIOError,
    compute_zeta,
    load_registry,
    save_registry,
    verify_record,
)
from .protocol import (
    Challenge,
    Commit,
    EntitySession,
    IdentityProof,
    Message,
    OpCounts,
    Phase,
    ProtocolError,
    Reason,
    Response,
    SessionError,
    SessionKey,
    Transcript,
    TwinSession,
    Verdict,
    WireError,
    decode_message,
    encode_message,
    extract_secret,
    pump,
    run_interactive_session,
    schnorr_response,
    schnorr_verify,
)
from .adversary import (
    AdversaryKind,
    AttackError,
    AttackOutcome,
    attack_impersonate_twin,
    attack_kci,
    attack_mitm_tamper,
    attack_replay,
)
from .simulator import (
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SessionMetrics,
    SimulationError,
    energy_proxy,
    run_campaign,
    run_session,
)

__version__ = "0.1.0"
