"""Exception types shared across the package."""


class MeaseqError(Exception):
    """Base class for all package errors."""


class CapacityError(MeaseqError):
    """A configured size limit was exceeded (chain too short, term blowup, atom cap)."""


class SpecificationError(MeaseqError):
    """A generator spec is inconsistent or incomplete (missing prime, overlapping parts)."""


class WindowRangeError(MeaseqError):
    """An index or length does not fit the window it is applied to."""


class DomainError(MeaseqError):
    """A supplied function is undefined (or non-finite) on the required range."""


class DiagnosticError(MeaseqError):
    """The window cannot support the requested analysis: it is too small, or a
    certificate built on it fails its own check."""


class DegenerateWindowError(MeaseqError):
    """A window has zero dispersion where a spread is required.

    `which` names the offending input argument.
    """

    def __init__(self, which: str):
        super().__init__(f"window {which!r} has zero dispersion")
        self.which = which


class GateError(MeaseqError):
    """An experiment precondition (independence, moment, u.d. gate) failed."""


class ResolutionError(MeaseqError):
    """No continuity witness, or no ladder level it divides, for the requested
    evaluation."""


class ContinuityBudgetError(MeaseqError):
    """No ladder level met the exceptional-set budget.

    Carries the best (level, fraction) pair found during the search.
    """

    def __init__(self, best_level: int, best_fraction: float):
        super().__init__(
            f"no level met the budget; best level {best_level} "
            f"leaves fraction {best_fraction:.6g}"
        )
        self.best_level = best_level
        self.best_fraction = best_fraction


class ConfigError(MeaseqError):
    """A CLI run config does not validate."""
