"""Exception types shared across the package, and the double-range guard."""

import cmath


class ZetaPathError(Exception):
    """Base class for all package-specific errors."""


class NonClosure(ZetaPathError):
    """A group-theoretic closure property failed (coset enumeration did not close)."""


class NearPole(ZetaPathError):
    """An evaluation was requested too close to a pole of the function, or
    where a value leaves double range (near a cusp of the eta quotients,
    or far left of the critical strip for zeta); carries the point z
    where the evaluation knows it."""

    def __init__(self, message: str, z: complex | None = None):
        super().__init__(message)
        self.z = z


def out_of_range(what: str, z: complex) -> NearPole:
    """The NearPole at z for `what` leaving double range."""
    return NearPole(f"{what} leaves double range at {z}", z=z)


def within_range(what: str, z: complex, compute):
    """compute(), or out_of_range(what, z) where it overflows, divides by
    zero or is not finite."""
    try:
        value = compute()
        if cmath.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise out_of_range(what, z)


class PoleAtOne(ZetaPathError):
    """zeta(s) was requested at (or within 1e-12 of) the pole s = 1."""


class MissedZero(ZetaPathError):
    """A Rosser block kept fewer sign changes of Hardy Z than its Gram
    intervals, so the zero count could not be certified, a zero's Newton
    refinement did not converge, or a located zero has too small a
    derivative to be simple."""


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
