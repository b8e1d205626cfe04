"""Domain errors shared across the package.

Every error corresponds to a precondition a caller can violate with
honest mathematical input (as opposed to malformed data, which raises
ValueError or, at the command line, InputError).
"""


class ToricalcError(Exception):
    """Base class for all domain errors."""


class EmptyPolyhedron(ToricalcError):
    """The polyhedron is empty where a nonempty one is required."""


class LinealityPresent(ToricalcError):
    """The polyhedron contains a line where a pointed one is required."""


class Unbounded(ToricalcError):
    """The polyhedron has recession directions where a bounded one is required."""


class NotPointed(ToricalcError):
    """The cone contains a line, so it has no finite Hilbert basis."""


class NotSimple(ToricalcError):
    """The polyhedron is not simple, so Betti numbers are not defined here."""


class TorsionQuotient(ToricalcError):
    """The weight rows span a non-saturated lattice (disconnected stabilizer)."""


class NonSpanning(ToricalcError):
    """The inequality normals do not span the ambient lattice."""


class NotInSemigroup(ToricalcError):
    """The graded lattice point lies outside the semigroup of the polyhedron."""


class AllZero(ToricalcError):
    """All positive-degree invariant values vanish, so no projective point exists.

    Evaluated up to the largest generator degree, this happens exactly
    at unstable points; a smaller bound can also drop every nonzero
    value of a semistable point."""


class InputError(Exception):
    """Malformed input at the command-line boundary (exit code 2)."""
