"""Quadrature rules on the unit sphere S^n and sinh-power radial integrals.

Three node families cover the dimensions used in practice: an exact
equiangular grid on the circle, a Gauss-Legendre x uniform product rule on
S^2, and seeded Monte-Carlo nodes for any n. Weights always sum to the
sphere area |S^n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("uniform-grid", "product-rule", "monte-carlo")

DEFAULT_COUNTS = {1: 4096, 2: 16384}
DEFAULT_COUNT_HIGH = 16384


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^n in R^{n+1}."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit ball in R^n."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes on S^n with positive weights summing to the sphere area."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        if self.kind not in KINDS:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if nodes.ndim != 2 or nodes.shape[1] != self.n + 1 or nodes.shape[0] == 0:
            raise ValueError("nodes must be a nonempty (N, n+1) array")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("weights must align with nodes")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("nodes must be unit vectors")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(weights)) - sphere_area(self.n)) > 1e-8:
            raise ValueError("weights must sum to the sphere area")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of per-node values."""
        return float(np.dot(self.weights, np.asarray(values, dtype=np.float64)))


def _uniform_grid(count: int) -> SphereQuadrature:
    angles = 2.0 * math.pi * np.arange(count) / count
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(count, 2.0 * math.pi / count)
    return SphereQuadrature(1, nodes, weights, "uniform-grid")


def _product_rule(count: int) -> SphereQuadrature:
    root = math.isqrt(count)
    if root * root == count:
        nz, nphi = root, root
    else:
        nz = max(2, round(math.sqrt(count / 2.0)))
        nphi = max(4, round(count / nz))
    z, wz = np.polynomial.legendre.leggauss(nz)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    sin_polar = np.sqrt(1.0 - z * z)
    nodes = np.empty((nz * nphi, 3))
    nodes[:, 0] = np.outer(sin_polar, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(sin_polar, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(z, nphi)
    weights = np.repeat(wz, nphi) * (2.0 * math.pi / nphi)
    return SphereQuadrature(2, nodes, weights, "product-rule")


def _monte_carlo(n: int, count: int, seed: int) -> SphereQuadrature:
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.normal(size=(count, n + 1))
    nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(count, sphere_area(n) / count)
    return SphereQuadrature(n, nodes, weights, "monte-carlo")


def build_quadrature(
    n: int,
    count: int | None = None,
    kind: str | None = None,
    seed: int = 0,
) -> SphereQuadrature:
    """Node set on S^n.

    Defaults: the 4096-node equiangular grid for n = 1, the 16384-node
    Gauss-Legendre x uniform product rule for n = 2, and seeded
    Monte-Carlo for n >= 3. The product rule factors the request into a
    polar x azimuthal grid, so the realized count can differ slightly from
    a non-square request.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    if kind is None:
        kind = "uniform-grid" if n == 1 else ("product-rule" if n == 2 else "monte-carlo")
    if count is None:
        count = DEFAULT_COUNTS.get(n, DEFAULT_COUNT_HIGH)
    if count < 2:
        raise ValueError("needs at least 2 nodes")
    if kind == "uniform-grid":
        if n != 1:
            raise ValueError("uniform-grid nodes exist only on the circle (n = 1)")
        return _uniform_grid(count)
    if kind == "product-rule":
        if n != 2:
            raise ValueError("the product rule is specific to S^2 (n = 2)")
        return _product_rule(count)
    if kind == "monte-carlo":
        return _monte_carlo(n, count, seed)
    raise ValueError(f"unknown quadrature kind {kind!r}")


def sinh_power_integral(n: int, rho) -> np.ndarray | float:
    """Antiderivative value I_n(rho) = integral of sinh(r)^n dr from 0 to rho.

    Stable recurrence: I_0 = rho, I_1 = 2 sinh^2(rho/2), and
    I_n = (sinh^{n-1}(rho) cosh(rho) - (n-1) I_{n-2}) / n. Accepts scalars
    or arrays; rho must be nonnegative.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    arr = np.asarray(rho, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("rho must be nonnegative")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sh, ch = np.sinh(arr), np.cosh(arr)
    if n % 2 == 0:
        value = arr.copy()
        k = 0
    else:
        value = 2.0 * np.sinh(arr / 2.0) ** 2
        k = 1
    while k < n:
        k += 2
        value = (sh ** (k - 1) * ch - (k - 1) * value) / k
    return float(value[0]) if scalar else value
