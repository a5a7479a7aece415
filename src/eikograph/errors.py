"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract, so new failure modes should
subclass one of the bases below rather than raising bare ValueErrors.
"""


class EikographError(Exception):
    """Base class for every failure raised by this package."""


class InputError(EikographError, ValueError):
    """Malformed or inconsistent user input: files, arguments, data."""


class GraphFormatError(InputError):
    """A graph document was rejected; the message carries a file:line anchor
    whenever the offending record could be located in the source text."""


class RecordError(InputError):
    """One record of a graph was refused: ``kind`` ("vertex" or "edge") and
    ``id`` name it, so a loader can point at the record in its source."""

    def __init__(self, message, kind, id):
        super().__init__(message)
        self.kind = kind
        self.id = id


class ProfileError(RecordError):
    """An edge's cost profile was refused; ``edge`` names the edge."""

    def __init__(self, message, edge):
        super().__init__(message, "edge", edge)
        self.edge = edge


class PreconditionError(InputError):
    """A stated precondition of an operation does not hold for the given data."""


class UnreachableError(EikographError):
    """Two points admit no connecting path.

    Construction-time connectivity validation makes this unreachable through
    the public API; it guards internal kernels against future misuse.
    """


class VerificationError(EikographError):
    """An internal cross-check that is supposed to be a mathematical identity
    failed (e.g. the slope-engine self-test)."""


class HamiltonianRejection(EikographError):
    """Base for Hamiltonians refused by the eikonal reduction preconditions."""


class NonmonotoneHamiltonian(HamiltonianRejection):
    """The probe found H(x, r, .) dropping back to <= 0 after being positive."""

    def __init__(self, message, point=None, p_pair=None):
        super().__init__(message)
        self.point = point
        self.p_pair = p_pair


class NoSubsolution(HamiltonianRejection):
    """H(x, u(x), 0) > 0 somewhere: the zero-slope function is not a subsolution."""


class ImproperHamiltonian(HamiltonianRejection):
    """Two slope solves at one point found h(x, r) = inf{p : H(x, r, p) > 0}
    rising with r, so H is not nondecreasing in r there.  ``witness`` is
    (x, r1, r2, h1, h2) with r1 < r2 and h1 < h2."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoercivityProbeFailed(HamiltonianRejection):
    """H(x, u(x), .) never became positive below the search ceiling pmax."""
