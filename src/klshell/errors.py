"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parametric coordinate lies outside the knot range."""


class SingularGeometryError(RuntimeError):
    """Surface tangents are degenerate (a1 x a2 = 0) at an evaluation point.

    ``elements`` lists the elements that have such a point, when they are
    known; the message then begins "elements [i, ...]: " before ``reason``.
    """

    def __init__(self, reason: str, elements: list[int] | None = None):
        super().__init__(reason if elements is None else f"elements {elements}: {reason}")
        self.reason, self.elements = reason, elements


class IndefiniteSystemError(RuntimeError):
    """Inverse iteration found a negative eigenvalue: the system is indefinite."""


class SingularSystemError(RuntimeError):
    """The reduced system is numerically singular."""


class NumericalError(RuntimeError):
    """A solve failed to reach the required residual tolerance."""
