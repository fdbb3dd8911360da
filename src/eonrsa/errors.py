"""Shared exception types."""


class EonRsaError(Exception):
    """Base class for all package errors."""


class ParseError(EonRsaError):
    """Malformed topology or instance file."""


class InvariantViolation(EonRsaError):
    """Input breaks a structural invariant (duplicate edge, unknown endpoint, ...)."""


class UnknownNode(EonRsaError):
    """A request references a node absent from the topology."""


class UnknownId(EonRsaError):
    """An LP model edit references a variable id or a row that does not exist."""


class InvalidConfiguration(EonRsaError):
    """A candidate master column violates a configuration invariant."""


class ConflictDetected(EonRsaError):
    """A provisioning plan uses a (link, slot) cell twice; `oracle.verify_plan` raises it."""


class CapExceeded(EonRsaError):
    """Derived-request enumeration asked for more atomics per pair than the cap allows."""


class LimitsExceeded(EonRsaError):
    """Instance is too large for the exhaustive oracle."""
