"""Exception types raised by the protocol library and simulator."""


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


class NoSourceError(VouchnetError):
    """No usable fingerprint replies were available for a vote."""


class NoMajorityError(VouchnetError):
    """The largest fingerprint classes are tied; no majority exists."""


class NoVerifiersError(VouchnetError):
    """The sender has no usable neighbors to authenticate through."""


class UndefinedHomophilyError(VouchnetError):
    """The mixing index is undefined on a graph without edges."""


class ScenarioError(VouchnetError):
    """Scenario validation failed. ``fields`` lists the offending entries."""

    def __init__(self, fields: list[str]):
        self.fields = list(fields)
        super().__init__("invalid scenario: " + "; ".join(self.fields))


class UnknownParameterError(VouchnetError):
    """A sweep grid referenced a parameter the scenario does not define."""
