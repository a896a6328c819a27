"""Exception hierarchy shared by all certlab modules."""


class CertlabError(Exception):
    """Base class for all certlab errors."""


class GraphFormatError(CertlabError):
    """A graph container file is malformed or internally inconsistent."""


class ConvergenceError(CertlabError):
    """A QP solve did not reach the requested tolerance.

    Carries the last residual so callers can decide whether to retry
    with more sweeps.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SingularPropagationError(CertlabError):
    """The propagation matrix (I - (1-alpha) S) is singular."""


class ResourceError(CertlabError):
    """A computation would exceed a configured memory cap."""


#: Leaves an exhaustive certificate may enumerate before it raises CapacityError.
DEFAULT_CAPACITY = 1_000_000


class CapacityError(CertlabError):
    """Exhaustive certification would exceed the leaf budget.

    Carries the leaf count of the first budget past the limit, a lower bound
    for every larger one. Export such instances as MPS/LP files and hand
    them to an external MILP solver instead.
    """

    def __init__(self, leaves: int, cap: int):
        super().__init__(
            f"enumeration needs at least {leaves} leaves but the capacity limit is {cap}; "
            "export the instance with write_mps/write_lp and solve it externally"
        )
        self.leaves = leaves
        self.cap = cap


class ConfigError(CertlabError):
    """An experiment configuration is invalid."""
