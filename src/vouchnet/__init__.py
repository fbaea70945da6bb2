"""vouchnet: community-vouched app distribution for constrained devices.

A device that cannot reach a trusted store checks an app against its
community instead: peers vote with fingerprints of their own copies, the
chosen source authenticates the delivery through MACs verified over
multiple neighbor paths, and a trust ledger prices every peer's future
word by its past behavior. The package bundles the protocol building
blocks with a deterministic simulator for studying how such communities
form, whom they isolate, and what the protocol costs on the wire.
"""

from .adversary import Behavior, CompromiseSpec, InterceptContext, assign_behaviors, intercept
from .apps import AppCatalog, AppId, AppPackage, InstallState, tamper
from .community import (
    CommunityGraph,
    FormationParams,
    NodeProfile,
    churn,
    designate_supernodes,
    homophily_index,
    marginal_utility,
    propose_and_approve,
)
from .crypto import (
    DEFAULT_WIDTH_BITS,
    MIN_KEY_BITS,
    Digest,
    MacKey,
    MacTag,
    fingerprint,
    mac,
    verify_mac,
)
from .engine import Simulation, run
from .errors import (
    ConfigurationError,
    DuplicateAppError,
    KeyMismatchError,
    KeyStrengthError,
    NoVerifiersError,
    ScenarioError,
    UnknownParameterError,
    VouchnetError,
)
from .events import EventLog, EventRecord, RetrievalTrace
from .messages import (
    AcceptanceDecision,
    AuthPackage,
    FingerprintReply,
    SuspicionNotice,
    VerifyReply,
    VoteOutcome,
)
from .metrics import MetricsReport, account_overhead, bandwidth_table
from .multipath import build_auth_package, decide, toc_tou_check, verify_round
from .protocol import broadcast_call_out, choose_source, filter_old_devices, majority_vote, notify_dissenters
from .scenario import Scenario, apply_overrides
from .sweep import sweep
from .trust import Ledger, TrustRecord, combined_trust, subjective_trust, update_correctness, update_response

__version__ = "0.1.0"
