"""Exception types raised across the package."""


class ConservaError(Exception):
    """Base class for all package errors."""


class DomainError(ConservaError):
    """A state left the admissible set (e.g. nonpositive density or pressure)."""

    def __init__(self, message, state=None, index=None):
        super().__init__(message)
        self.state = state
        self.index = index


class ConfigError(ConservaError):
    """Invalid configuration or usage (bad sizes, unknown ids, bad flags)."""


class GraphStructureError(ConservaError):
    """Element graph is not connected (flux recovery requires connectivity)."""


class ConservationError(ConservaError):
    """Residuals handed to flux recovery do not sum to zero."""

    def __init__(self, message, defect=None, elements=None):
        super().__init__(message)
        self.defect = defect
        self.elements = elements


class CorrectionError(ConservaError):
    """A residual correction is impossible (degenerate direction with a real defect)."""

    def __init__(self, message, elements=None):
        super().__init__(message)
        self.elements = elements


class StepRejectedError(ConservaError):
    """A time step produced an inadmissible state and should be retried."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class RunError(ConservaError):
    """A time integration blew up after retries."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class VacuumError(ConservaError):
    """The exact Riemann problem generates vacuum; the oracle does not cover it."""


class BranchError(ConservaError):
    """An exact solution was requested outside its validity branch."""


class DiagnosticError(ConservaError):
    """A diagnostic cannot run on the provided record (e.g. too few snapshots)."""
