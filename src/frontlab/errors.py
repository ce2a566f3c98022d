"""Exception types shared by the solvers and analysis tools.

Solver failures carry the simulation time at which they occurred so batch
drivers can report it in machine-readable form.
"""

from __future__ import annotations


class FrontlabError(Exception):
    """Base class for all package-specific failures."""

    code = "error"


class SolverError(FrontlabError):
    """A failure during time stepping; records the time of failure."""

    def __init__(self, message: str, time_of_failure: float | None = None):
        super().__init__(message)
        self.time_of_failure = time_of_failure


class DegenerateKernel(FrontlabError):
    """Kernel so concentrated at 0 that its scaling constants blow up."""

    code = "degenerate_kernel"


class NegativeDensity(FrontlabError):
    """A reaction term was evaluated at u < 0 (positivity lost upstream)."""

    code = "negative_density"


class DegenerateDomain(SolverError):
    """The active interval collapsed (h - g below tolerance)."""

    code = "degenerate_domain"


class PositivityLoss(SolverError):
    """A solution value dropped below -1e-10 or is NaN; the run is aborted."""

    code = "positivity_loss"


class CflViolation(SolverError):
    """The step size violates an explicit stability restriction."""

    code = "cfl_violation"


class OutOfHorizon(FrontlabError):
    """A solution was sampled beyond its time horizon."""

    code = "out_of_horizon"


class ResolutionTooCoarse(SolverError):
    """Grid spacing too coarse to resolve the kernel window (dx > eps/8)."""

    code = "resolution_too_coarse"


class DomainTooSmall(SolverError):
    """Active interval too narrow for the boundary-flux window rewrite."""

    code = "domain_too_small"


class HorizonMismatch(FrontlabError):
    """Two solutions being compared do not share the same horizon."""

    code = "horizon_mismatch"


class DegenerateFit(FrontlabError):
    """Rate fit inputs admit no slope: too few or repeated eps, or an eps or
    error that is not positive and finite (a zero error: quadrature floor)."""

    code = "degenerate_fit"
