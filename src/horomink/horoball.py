"""Horoballs in H^{n+1} and the closed forms the rest of the package rests on.

A horoball is pinned down by its ideal center e in S^n and a signed scale
s: the closed ball is {X : f_e(X) <= s} where f_e(X) = log(-<X, (e, 1)>)
is the Busemann-type function vanishing at the basepoint O. Positive s
means O is interior, s = 0 puts O on the horosphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Direction,
    HyperboloidPoint,
    Isometry,
    minkowski_dot,
)

# Directions this close to a query direction count as the center itself;
# the radial ray then never leaves the horoball.
CENTER_ALIGNMENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Horoball:
    """Closed horoball with ideal center `center` and scale parameter `s`."""

    center: Direction
    s: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("horoball parameter s must be finite")

    @property
    def n(self) -> int:
        return self.center.n

    def null_vector(self) -> np.ndarray:
        """Future-pointing null vector c with {X : <X, c> = -1} the horosphere."""
        return math.exp(-self.s) * np.append(self.center.vector, 1.0)


def busemann_value(e: Direction, point: HyperboloidPoint) -> float:
    """f_e(X) = log(-<X, (e, 1)>); the horosphere through X about e has this scale."""
    if e.n != point.n:
        raise ValueError("direction and point dimensions differ")
    val = -float(minkowski_dot(point.coords, np.append(e.vector, 1.0)))
    return math.log(val)


def horoball_contains(ball: Horoball, point: HyperboloidPoint) -> bool:
    """Membership in the closed horoball."""
    return busemann_value(ball.center, point) <= ball.s


def radial_matrix(centers: np.ndarray, scales: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per-horoball radial reach along each direction; inf where the ray is trapped.

    centers: (m, n+1) unit rows, scales: (m,) positive, thetas: (G, n+1) unit
    rows. Returns (G, m) with entry [g, i] = sup {t : polar(t, theta_g) in
    closed horoball i}.
    """
    cos = np.clip(thetas @ centers.T, -1.0, 1.0)
    exps = np.exp(scales)[None, :]
    disc = np.sqrt(exps * exps - 1.0 + cos * cos)
    with np.errstate(divide="ignore"):
        out = np.log((exps + disc) / (1.0 - cos))
    out[cos >= 1.0 - CENTER_ALIGNMENT_TOL] = np.inf
    return out


def horoball_transform(ball: Horoball, iso: Isometry) -> Horoball:
    """Push a horoball forward through an isometry.

    Works on the null-vector representative c = e^{-s} (e, 1): the image
    Mc is again future-null and factors as e^{-s'} (e', 1).
    """
    if iso.n != ball.n:
        raise ValueError("isometry and horoball dimensions differ")
    image = iso.matrix @ ball.null_vector()
    scale = float(image[-1])
    if scale <= 0.0:
        raise ValueError("isometry does not preserve the future light cone")
    return Horoball(Direction.from_vector(image[:-1]), -math.log(scale))

