"""Self-similar free-particle Madelung flow: closed forms and verification."""

from .core import (
    LAB_FIELDS,
    LabPoint,
    PhysicalParams,
    SolutionConstants,
    density,
    lab_field,
    phase,
    quantum_potential_eq9_masked,
    shape_density,
    shape_velocity_split,
    shape_velocity_sum,
    simplified_shape_density,
    velocity,
    wavefunction_canonical,
)
from .errors import (
    ConvergenceError,
    DomainError,
    MadelungError,
    NonFiniteOutput,
    PoleError,
    RangeTooNarrow,
    StepTooLarge,
    ToleranceNotMet,
    UnmatchedRoot,
)
from .series import SampleSeries
from .specfun import (
    BesselOrder,
    bessel_j,
    bessel_j_deriv,
    bessel_y,
    bessel_y_deriv,
    cross_product,
    gamma,
)

__version__ = "0.1.0"
