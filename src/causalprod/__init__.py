"""Causal double products of rotations, their coefficient combinatorics, and the limit kernel."""

from .combinatorics import (
    DyckQuery,
    binomial,
    catalan_general,
    catalan_recurrence_holds,
    enumerate_dyck,
    fibonacci,
)
from .coefficients import (
    SeriesPolynomial,
    anticausal_series,
    causal_series,
    forward_count_brute,
    forward_count_closed,
    reversed_count_brute,
    reversed_count_closed,
    truncated_kernel,
)
from .kernel import (
    ComplexParam,
    Interval,
    bessel_series,
    isometry_residual,
    kernel_anticausal,
    kernel_causal,
    limit_kernel,
    lommel_residual,
    sonine_gegenbauer_residual,
)
from .lattice import (
    EssentialOrder,
    LatticePath,
    LinearExtension,
    enumerate_linear_extensions,
    enumerate_paths,
    essential_order,
)
from .product import (
    ConvergenceStudy,
    PairOrdering,
    PiecewisePolynomial,
    bilinear_form,
    convergence_study,
    double_product,
    limit_bilinear_form,
)

__version__ = "0.1.0"
