"""Node behavior strategies and compromise assignment.

A behavior is a stateless transform applied to every message a node is
about to send. Honest nodes pass messages through; the other strategies
drop, invert, or rewrite specific message types. Store blocking is a
scenario-level condition, not a node behavior, so it does not appear here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .apps import AppCatalog
from .crypto import MacKey, mac
from .errors import ConfigurationError
from .messages import AuthPackage, FingerprintReply, VerifyReply, mac_message

if TYPE_CHECKING:  # avoid a cycle; the graph only supplies node ids here
    from .community import CommunityGraph


class Behavior(str, Enum):
    HONEST = "honest"
    TAMPERED_SERVER = "tampered_server"      # holds and serves corrupted copies
    TOCTTOU_SWAPPER = "tocttou_swapper"      # reports clean, delivers corrupted
    LYING_VERIFIER = "lying_verifier"        # inverts MAC verdicts
    FREE_RIDER = "free_rider"                # consumes but never answers

    @staticmethod
    def parse(name: str) -> "Behavior":
        try:
            return Behavior(name)
        except ValueError:
            raise ConfigurationError(f"unknown behavior strategy {name!r}") from None


@dataclass(frozen=True)
class CompromisePlan:
    """Which fraction of nodes misbehave, and how the strategies mix."""

    fraction: float
    mix: dict[str, float] = field(hash=False)
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(f"compromise fraction {self.fraction} outside [0, 1]")
        if self.fraction > 0.0 and not self.mix:
            raise ConfigurationError("compromise fraction set but strategy mix is empty")
        for name, weight in self.mix.items():
            strategy = Behavior.parse(name)
            if strategy is Behavior.HONEST:
                raise ConfigurationError("honest is the default, not a compromise strategy")
            if weight < 0.0:
                raise ConfigurationError(f"negative mix weight for {name!r}")
        if self.mix and not math.isclose(sum(self.mix.values()), 1.0, abs_tol=1e-9):
            raise ConfigurationError("strategy mix weights must sum to 1")


def assign_behaviors(graph: "CommunityGraph", plan: CompromisePlan) -> dict[int, Behavior]:
    """Pick floor(fraction * N) nodes by seeded sample and assign strategies.

    Every node gets an entry; unsampled nodes are honest. The same plan on
    the same graph always yields the same assignment.
    """
    plan.validate()
    rng = random.Random(plan.seed)
    ids = sorted(graph.node_ids())
    count = math.floor(plan.fraction * len(ids))
    compromised = sorted(rng.sample(ids, count)) if count else []
    assignment = {i: Behavior.HONEST for i in ids}
    names = sorted(plan.mix)
    weights = [plan.mix[n] for n in names]
    for node in compromised:
        choice = rng.choices(names, weights=weights, k=1)[0]
        assignment[node] = Behavior(choice)
    return assignment


@dataclass(frozen=True)
class InterceptContext:
    """What a strategy may consult while rewriting an outbound message."""

    catalog: AppCatalog
    keystores: dict[int, dict[int, MacKey]] = field(hash=False)


def intercept(behavior: Behavior, message: object, ctx: InterceptContext):
    """Apply a node's strategy to one outbound message.

    Returns the (possibly rewritten) message, or None when the node stays
    silent. Honest behavior is the identity on every message type.
    """
    if behavior is Behavior.HONEST or behavior is Behavior.TAMPERED_SERVER:
        # A tampered server's install state already carries the corruption,
        # so both its digest report and its delivery are consistently bad.
        return message

    if behavior is Behavior.FREE_RIDER:
        if isinstance(message, (FingerprintReply, VerifyReply)):
            return None
        return message

    if behavior is Behavior.LYING_VERIFIER:
        if isinstance(message, VerifyReply):
            return VerifyReply(verifier=message.verifier, verdict=not message.verdict)
        return message

    if behavior is Behavior.TOCTTOU_SWAPPER:
        if isinstance(message, FingerprintReply):
            clean = ctx.catalog.clean_digest(message.app_id)
            return FingerprintReply(responder=message.responder, app_id=message.app_id,
                                    digest=clean, key_length_bits=message.key_length_bits)
        if isinstance(message, AuthPackage):
            # Claim the clean digest and re-MAC it so the verifiers agree;
            # the payload is left corrupted. Only the digest recomputation
            # at the requester can catch the swap.
            clean = ctx.catalog.clean_digest(message.app_id)
            store = ctx.keystores[message.sender]
            bound = mac_message(message.app_id, clean)
            macs = tuple(
                (v, mac(store[v], bound, width_bits=clean.width_bits))
                for v, _ in message.macs
            )
            return AuthPackage(sender=message.sender, app_id=message.app_id,
                               payload=message.payload, claimed_digest=clean, macs=macs)
        return message

    raise ConfigurationError(f"unhandled behavior {behavior!r}")
