"""Value types: messages and event records are immutable named tuples that
compare by value; decisions, digests, tags and keys stay dataclasses."""

import dataclasses

import pytest

from vouchnet.apps import AppId
from vouchnet.crypto import Digest, MacKey, MacTag
from vouchnet.events import EV_VOTE, EventRecord
from vouchnet.messages import (
    AcceptanceDecision,
    AuthPackage,
    FingerprintReply,
    SuspicionNotice,
    VerifyReply,
    VoteOutcome,
)

APP = AppId("maps", "1")
CLEAN = Digest(bits=bytes(28), width_bits=224)
BAD = Digest(bits=b"\x01" * 28, width_bits=224)
TAG = MacTag(key_id="pair:1:2", tag=bytes(28), width_bits=224)

VALUES = [
    FingerprintReply(responder=1, app_id=APP, digest=CLEAN, key_length_bits=256),
    VoteOutcome(app_id=APP, majority_digest=CLEAN, supporters=(1, 2), dissenters=(3,),
                dissent_digests={3: BAD}, unanimous=False),
    SuspicionNotice(sender=0, target=3, app_id=APP, suspected_digest=BAD,
                    majority_digest=CLEAN),
    AuthPackage(sender=1, app_id=APP, payload=b"payload", claimed_digest=CLEAN,
                macs=((2, TAG),)),
    VerifyReply(verifier=2, verdict=True),
    EventRecord(tick=4, kind=EV_VOTE, data={"unanimous": "False"}, bits=0, retrieval=7),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_named_tuple_refuses_assignment(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_named_tuple_compares_by_value(value):
    first = value._fields[0]
    copy = type(value)(**value._asdict())
    assert copy == value and copy is not value
    changed = value._replace(**{first: -1})
    assert changed != value
    assert getattr(changed, first) == -1
    assert changed._replace(**{first: getattr(value, first)}) == value


def test_acceptance_decision_is_a_dataclass():
    decision = AcceptanceDecision(accepted=True, reason="quorum-reached", positives=2,
                                  total_polled=3)
    flipped = dataclasses.replace(decision, accepted=False)
    assert flipped.accepted is False
    assert (flipped.reason, flipped.positives, flipped.total_polled) == ("quorum-reached", 2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        decision.accepted = False


@pytest.mark.parametrize("cls", [Digest, MacTag, MacKey])
def test_crypto_values_are_dataclasses(cls):
    assert dataclasses.is_dataclass(cls)
