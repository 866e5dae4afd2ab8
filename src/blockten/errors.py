"""Exception types shared across the package.

The CLI maps these onto process exit codes: anything that means "the input
file could not even be parsed" exits 2, shape/pattern disagreements exit 3,
and numerical failures (indefiniteness, non-convergence) exit 4.
"""


class ShapeError(ValueError):
    """Dimensions, ranks, or extents are inconsistent with the operation."""


class PatternMismatchError(ValueError):
    """A matrix does not conform to the block pattern it was paired with."""


class NotPositiveDefiniteError(ArithmeticError):
    """A Cholesky pivot was non-positive; the matrix is not SPD."""


class ConvergenceError(RuntimeError):
    """An iterative or LAPACK routine failed to converge."""


class ContainerFormatError(ValueError):
    """A serialized container is malformed or has an unsupported version."""


class ContainerExtentError(ShapeError):
    """Container payload extents disagree with the header declaration."""
