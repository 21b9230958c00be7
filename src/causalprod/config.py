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
# At the cap, converge --n-list 256,512,1024,2048,4096 takes ~0.22 s as a cold process (~0.1 s
# of it in cli.main) on a 2-vCPU host with one BLAS thread; apply_product's time grows as N^2 and
# its memory as N, so N = 16384 would take ~0.3 s and 5.9 MB per 4 columns
CONVERGE_DIM_CAP = 4096
# verify's coefficient identity is one exact int64 pass over every triple: ~7 ms at
# s_max = 10 and ~0.26 s at 20 on a 2-vCPU host, ~6 MB of numpy arrays at its peak
# (~0.64 s and ~9 MB at 24)
VERIFY_IDENTITY_CAP = 20

# kernel evaluates an n x n grid one point per call: ~0.1 ms per point at --s-max 0 and ~14 ms
# with the --s-max 40 series comparison (2-vCPU host), so --n 128 takes ~1.8 s and ~4 min there
KERNEL_GRID_CAP = 128

# each command (RunConfig.command) with its limits: its --s-max cap, its --n cap and its --n-list
# cap (None where it reads no such flag), and the finest division of [a, b) it makes (None where
# it divides nothing)
LIMITS = {
    "coeffs": (COEFF_TABLE_CAP, None, None, lambda cfg: None),
    "verify": (VERIFY_IDENTITY_CAP, None, None, lambda cfg: None),
    "converge": (None, None, CONVERGE_DIM_CAP, lambda cfg: max(cfg.n_list)),
    "kernel": (SERIES_CAP, KERNEL_GRID_CAP, None, lambda cfg: cfg.n + 1),
}


def parse_sizes(text: str) -> tuple[int, ...]:
    """The sizes of a comma-separated --n-list such as "25,50,100".

    Each token is ASCII digits only, so an empty token, a sign, a space or an
    underscore (all but the first accepted by int()) is refused.
    """
    tokens = text.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"n_list must be comma-separated integers, got {text!r}")
    return tuple(map(int, tokens))


@dataclass(frozen=True)
class RunConfig:
    command: str
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
        # (b - a)|nu| scales every kernel argument; its square is the largest series argument
        width, modulus = self.interval.width, self.param.modulus  # Interval refuses b <= a
        if not math.isfinite((width * modulus) * (width * modulus)):
            raise ValueError(f"(b - a) * |nu| out of range, got b - a = {width}, |nu| = {modulus}")
        if self.tol <= 0:
            raise ValueError(f"need tol > 0, got {self.tol}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        s_cap, n_cap, list_cap, finest = LIMITS[self.command]
        if s_cap is not None and not 0 <= self.s_max <= s_cap:
            raise ValueError(f"{self.command} needs s_max in [0, {s_cap}], got {self.s_max}")
        if n_cap is not None and self.n > n_cap:
            raise ValueError(f"{self.command} needs n in [1, {n_cap}], got {self.n}")
        ns = self.n_list
        if list_cap is not None and (len(ns) < 2 or min(ns) < 2 or max(ns) > list_cap
                                     or any(b <= a for a, b in zip(ns, ns[1:]))):
            raise ValueError(f"n_list needs 2+ strictly increasing sizes in [2, {list_cap}], "
                             f"got {ns}")
        cells, offset = finest(self), max(abs(self.a), abs(self.b))
        if cells is not None and width / cells < 4 * math.ulp(offset):
            raise ValueError(f"b - a = {width} is too narrow at |a|, |b| up to {offset}: "
                             f"steps of (b - a)/{cells} would round onto a or b")

    @property
    def interval(self) -> Interval:
        return Interval(self.a, self.b)

    @property
    def param(self) -> ComplexParam:
        return ComplexParam(self.lam, self.mu)
