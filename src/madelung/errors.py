"""Exception types shared across the package, and the output check that raises one."""

import numpy as np


class MadelungError(Exception):
    """Base class for all library errors."""


class DomainError(MadelungError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma function evaluated at (or too close to) a non-positive integer."""


class ConvergenceError(MadelungError):
    """Neither evaluation regime can attain the requested accuracy."""


class StepTooLarge(MadelungError):
    """Finite-difference step fails the Richardson consistency check."""


class RangeTooNarrow(MadelungError):
    """Root scan found no sign change although roots were requested."""


class UnmatchedRoot(MadelungError):
    """A density zero has no quantum-potential pole within tolerance."""


class ToleranceNotMet(MadelungError):
    """A quadrature panel could not be resolved to the requested tolerance."""


class NonFiniteOutput(MadelungError):
    """An evaluated value is NaN or infinite outside every documented exclusion."""


def require_finite(name, values, **coords):
    """Raise NonFiniteOutput naming the first point where ``values`` is not finite.

    ``coords`` maps coordinate names to arrays that broadcast against
    ``values``; points are taken in C order, the row order of the CLI tables.
    """
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if not bad.any():
        return
    i = int(np.flatnonzero(bad)[0])
    where = ", ".join(f"{key} = {float(np.broadcast_to(val, values.shape).flat[i])!r}"
                      for key, val in coords.items())
    raise NonFiniteOutput(f"{name} is not finite at {where}")
