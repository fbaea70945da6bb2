"""Faults raised by the protocol library and simulator.

A protocol step that comes up empty returns None instead of raising.
"""


class VouchnetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(VouchnetError):
    """A parameter is outside the supported configuration space."""


class KeyStrengthError(VouchnetError):
    """A MAC key is shorter than the configured minimum."""


class KeyMismatchError(VouchnetError):
    """A tag was presented against a key with a different identity.

    Deliberately distinct from a failed verification: a mismatched key id
    means the caller wired the wrong key, not that the message was forged.
    """


class DuplicateAppError(VouchnetError):
    """A clean package with the same app id was already published."""


class NoVerifiersError(VouchnetError):
    """An acceptance decision was asked for with nobody polled.

    A caller fault: the simulator decides only after a verification round
    over an authenticated delivery, which always names a verifier.
    """


class ScenarioError(VouchnetError):
    """Scenario validation failed. ``fields`` lists the offending entries."""

    def __init__(self, fields: list[str]):
        self.fields = list(fields)
        super().__init__("invalid scenario: " + "; ".join(self.fields))


class UnknownParameterError(VouchnetError):
    """A sweep grid referenced a parameter the scenario does not define."""
