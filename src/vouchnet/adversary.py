"""Node behavior strategies and compromise assignment.

A behavior is a stateless transform applied to the messages a
compromised node is about to send: it drops, inverts, or rewrites specific
message types. Store blocking is a scenario-level condition, not a node
behavior, so it does not appear here.

``CompromiseSpec`` is the scenario's ``compromise`` section and the only
statement of its rules; ``Scenario.validate`` reports them and
``assign_behaviors`` refuses a spec that breaks one. The behavior table it
returns lists compromised nodes only: honest means absent, so readers test
``node in behaviors``, and the engine consults ``intercept`` only for nodes
in the table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .apps import AppCatalog
from .crypto import MIN_KEY_BITS, MacKey, mac
from .errors import ConfigurationError
from .messages import AuthPackage, FingerprintReply, VerifyReply, mac_message

if TYPE_CHECKING:  # avoid a cycle; the graph only supplies node ids here
    from .community import CommunityGraph


class Behavior(str, Enum):
    TAMPERED_SERVER = "tampered_server"      # holds and serves corrupted copies
    TOCTTOU_SWAPPER = "tocttou_swapper"      # reports clean, delivers corrupted
    LYING_VERIFIER = "lying_verifier"        # inverts MAC verdicts
    FREE_RIDER = "free_rider"                # consumes but never answers


# The names a compromise mix may weight; honest is what every node is by default.
_STRATEGIES = frozenset(b.value for b in Behavior)

# The behaviors that start out holding their app's campaign copy, a
# corrupted package the engine installs at set-up. ``intercept`` relies on
# it: a tampered server forwards its messages unchanged, and a swapper
# rewrites only the digest it claims, never the payload it delivers.
HOLDS_CAMPAIGN_COPY = frozenset({Behavior.TAMPERED_SERVER, Behavior.TOCTTOU_SWAPPER})


@dataclass
class CompromiseSpec:
    """Which fraction of nodes misbehave, and how the strategies mix.

    A non-empty mix must sum to 1 whatever the fraction, so a mix that
    validates is one that can be drawn from.
    """

    fraction: float = 0.0
    mix: dict[str, float] = field(default_factory=dict)

    def problems(self) -> list[str]:
        """Every rule the spec breaks, each named by its scenario path."""
        found = []
        if not 0.0 <= self.fraction <= 1.0:
            found.append(f"compromise.fraction: {self.fraction} outside [0.0, 1.0]")
        for name, weight in self.mix.items():
            if name not in _STRATEGIES:
                found.append(f"compromise.mix: unknown strategy {name!r}")
            if weight < 0:
                found.append(f"compromise.mix.{name}: {weight} outside [0.0, inf]")
        if self.fraction > 0 and not self.mix:
            found.append("compromise.mix: empty while fraction > 0")
        if self.mix and not abs(sum(self.mix.values()) - 1.0) < 1e-9:
            found.append("compromise.mix: weights must sum to 1")
        return found


def assign_behaviors(graph: "CommunityGraph", spec: CompromiseSpec,
                     rng: random.Random) -> dict[int, Behavior]:
    """Pick floor(fraction * N) nodes by sample from ``rng`` and draw each
    one's strategy from the mix.

    Only compromised nodes get an entry; every other node is honest. The
    same spec and generator state on the same graph give the same table.
    """
    problems = spec.problems()
    if problems:
        raise ConfigurationError("; ".join(problems))
    ids = graph.node_ids()
    count = math.floor(spec.fraction * len(ids))
    if not count:
        return {}
    compromised = sorted(rng.sample(ids, count))
    names = sorted(spec.mix)
    weights = [spec.mix[n] for n in names]
    return {node: Behavior(rng.choices(names, weights=weights)[0]) for node in compromised}


@dataclass(frozen=True)
class InterceptContext:
    """What a strategy may consult while rewriting an outbound message."""

    catalog: AppCatalog
    keystores: dict[int, dict[int, MacKey]] = field(hash=False)
    # The scenario's key-strength floor; a swapper's re-MACs obey it too.
    min_key_bits: int = MIN_KEY_BITS


def intercept(behavior: Behavior, message: object, ctx: InterceptContext):
    """Apply a compromised node's strategy to one outbound message.

    Returns the (possibly rewritten) message, or None when the node stays
    silent.
    """
    if behavior is Behavior.TAMPERED_SERVER:
        # A tampered server holds the campaign copy (HOLDS_CAMPAIGN_COPY),
        # so both its digest report and its delivery are consistently bad.
        return message

    if behavior is Behavior.FREE_RIDER:
        if isinstance(message, (FingerprintReply, VerifyReply)):
            return None
        return message

    if behavior is Behavior.LYING_VERIFIER:
        if isinstance(message, VerifyReply):
            return message._replace(verdict=not message.verdict)
        return message

    if behavior is Behavior.TOCTTOU_SWAPPER:
        if isinstance(message, FingerprintReply):
            return message._replace(digest=ctx.catalog.clean_digest(message.app_id))
        if isinstance(message, AuthPackage):
            # Claim the clean digest and re-MAC it so the verifiers agree;
            # the payload stays the campaign copy. Only the digest
            # recomputation at the requester can catch the swap.
            clean = ctx.catalog.clean_digest(message.app_id)
            store = ctx.keystores[message.sender]
            bound = mac_message(message.app_id, clean)
            macs = tuple(
                (v, mac(store[v], bound, width_bits=clean.width_bits,
                        min_key_bits=ctx.min_key_bits))
                for v, _ in message.macs
            )
            return message._replace(claimed_digest=clean, macs=macs)
        return message

    raise ConfigurationError(f"unhandled behavior {behavior!r}")
