"""Exception types shared across the package."""


class QGroundError(Exception):
    """Base class for all qground errors."""


class InvalidParams(QGroundError):
    """Model parameters violate an existence or admissibility condition."""


class NoConvergence(QGroundError):
    """An iterative kernel (Newton inversion, height root-find) stalled."""


class BracketFailure(QGroundError):
    """The shooting bracket could not be made to straddle the height."""


class NoGroundState(QGroundError):
    """No decaying positive solution exists for the requested parameters."""


class AmbiguousTrajectory(QGroundError):
    """The trajectory at the accepted height crosses zero."""


class Divergent(QGroundError):
    """A radial integral does not converge for the profile's decay law."""


class ConstraintViolated(QGroundError):
    """A cross-check identity failed, indicating an unreliable solve."""


class RegimeMismatch(QGroundError):
    """An asymptotic check was invoked outside its parameter regime."""


class InsufficientNeighbors(QGroundError):
    """A finite-difference stencil has no room at the edge of a ladder."""


class InsufficientWindow(QGroundError):
    """The frequency ladder does not span enough decades for a stable fit."""


class NearSingular(QGroundError):
    """A linear solve sits too close to a spectral fold to be trusted."""


class EntryMismatch(QGroundError):
    """Closed-form and quadratic-form routes to a matrix entry disagree."""
