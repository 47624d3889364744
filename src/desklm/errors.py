"""Exception types shared across the library.

Everything derives from ValueError so that generic callers can treat any
input problem uniformly, while tests and the CLI can still distinguish the
specific failure.
"""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class ConfigError(ValueError):
    """A configuration object fails its own validation rules."""


class CorruptFileError(ValueError):
    """A file on disk is truncated, padded or inconsistent with its header."""


class ClassificationError(ValueError):
    """A parameter role is unknown to the width-scaling classifier."""


class PlanningError(ValueError):
    """A sampling plan is infeasible for at least one domain.

    Carries the violating domain names in ``domains`` and the full
    per-domain plan, each quota with what is available, in ``plan``.
    """

    def __init__(self, message, domains=None, plan=None):
        super().__init__(message)
        self.domains = list(domains or [])
        self.plan = plan


class EmptyShingleError(ValueError):
    """A document produced no shingles (it has no words)."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or Inf; the training step must be skipped."""
