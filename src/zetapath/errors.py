"""Exception types shared across the package."""


class ZetaPathError(Exception):
    """Base class for all package-specific errors."""


class NonClosure(ZetaPathError):
    """A group-theoretic closure property failed (coset enumeration did not close)."""


class NearPole(ZetaPathError):
    """An evaluation was requested too close to a pole of the function, or
    so near a cusp that a value leaves double range; carries the point z
    where the evaluation knows it."""

    def __init__(self, message: str, z: complex | None = None):
        super().__init__(message)
        self.z = z


class PoleAtOne(ZetaPathError):
    """zeta(s) was requested at (or within 1e-12 of) the pole s = 1."""


class MissedZero(ZetaPathError):
    """A Rosser block kept fewer sign changes of Hardy Z than its Gram
    intervals, so the zero count could not be certified, or a located zero
    has too small a derivative to be simple."""


class ParseError(ZetaPathError):
    """A zero-ordinate file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MonotonicityError(ZetaPathError):
    """Zero ordinates were not finite, positive and strictly increasing."""


class NotReduced(ZetaPathError):
    """A word was not in reduced alternating form."""


class PathWalkError(ZetaPathError):
    """A failure at a known place on a path walk: the path parameter t and,
    where the walk carries one, the point s of the continuation."""

    def __init__(self, message: str, t: float | None = None,
                 s: complex | None = None):
        super().__init__(message)
        self.t = t
        self.s = s


class Blocked(PathWalkError):
    """A path walk encountered an avatar-function pole (modulus above the cap)."""


class StepCollapse(PathWalkError):
    """Adaptive step halving in the tracer collapsed below the minimum step."""


class DerivativeSmall(PathWalkError):
    """The corrector encountered |zeta'(s)| too small to proceed."""
