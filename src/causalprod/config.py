"""Run configuration shared by the command-line entry points."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import ComplexParam, Interval

COEFF_TABLE_CAP = 8
SERIES_CAP = 40
# MAX_PRODUCT_DIM caps the dense oracle (double_product, linearized_product:
# O(N^3) time, N x N memory); CONVERGE_DIM_CAP caps every fast use of the
# product (apply_product, hence converge and bilinear_form).
MAX_PRODUCT_DIM = 512
CONVERGE_DIM_CAP = 4096
# verify's coefficient identity costs about s**8; s_max = 20 takes ~4 s
VERIFY_IDENTITY_CAP = 20
# verify's isometry check puts kernel.CHECK_NODES = 64 Gauss-Legendre nodes on panels as short
# as (b - a)/10; the node nearest a panel end sits 3.47e-5 (b - a) = (b - a)/28,779 from it
QUADRATURE_CELLS = 28_800


@dataclass(frozen=True)
class RunConfig:
    a: float = 0.0
    b: float = 1.0
    lam: float = 1.0
    mu: float = 0.5
    n: int = 11
    n_list: tuple[int, ...] = (25, 50, 100, 200)
    s_max: int = 6
    tol: float = 1e-8
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "lam", "mu", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        # (b - a)|nu| scales every kernel argument; its square is the largest series argument
        width, modulus = self.b - self.a, math.hypot(self.lam, self.mu)
        if not math.isfinite((width * modulus) * (width * modulus)):
            raise ValueError(f"(b - a) * |nu| out of range, got b - a = {width}, |nu| = {modulus}")
        if self.tol <= 0:
            raise ValueError(f"need tol > 0, got {self.tol}")
        if self.s_max < 0 or self.s_max > SERIES_CAP:
            raise ValueError(f"s_max must be in [0, {SERIES_CAP}], got {self.s_max}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if min(self.n_list) < 2:
            raise ValueError(f"every n in n_list must be >= 2, got {self.n_list}")
        # the finest division of [a, b) any command makes: the kernel grid, converge's cells
        # and the quadrature nodes of verify's isometry check
        cells = max(max(self.n_list), self.n + 1, QUADRATURE_CELLS)
        offset = max(abs(self.a), abs(self.b))
        if width / cells < 4 * math.ulp(offset):
            raise ValueError(f"b - a = {width} is too narrow at |a|, |b| up to {offset}: "
                             f"steps of (b - a)/{cells} would round onto a or b")

    @property
    def interval(self) -> Interval:
        return Interval(self.a, self.b)

    @property
    def param(self) -> ComplexParam:
        return ComplexParam(self.lam, self.mu)
