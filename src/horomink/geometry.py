"""Point models of hyperbolic (n+1)-space and its Lorentz isometries.

Points live on the upper sheet of the unit hyperboloid in Minkowski space
R^{n+1,1} with the bilinear form x_1 y_1 + ... + x_{n+1} y_{n+1} - x_{n+2} y_{n+2}.
The Poincare ball chart is kept alongside, with exact closed-form
conversions: `horomink render` draws in the ball and `oracle.mc_volume`
samples there. Bodies themselves are built in each horosphere's flat chart
(see polytope._shadows), and no query moves a point: distances are read off
the form, d(X, Y) = acosh(-<X, Y>). Isometry serves the tests of
invariance only.

The hyperboloid origin is O = (0, ..., 0, 1); the ball chart sends it to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
SHEET_TOL = 1e-10
LORENTZ_TOL = 1e-10


def _as_readonly(vec) -> np.ndarray:
    arr = np.array(vec, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def pow2_scaled(vectors: np.ndarray) -> np.ndarray:
    """Each vector (last axis) times the power of two that puts its largest
    |entry| in [1/2, 1). That is exact, so its norm cannot overflow or
    underflow, and one whose squares stay normal normalizes to the same bits."""
    _, exponent = np.frexp(np.max(np.abs(vectors), axis=-1, keepdims=True, initial=0.0))
    return np.ldexp(vectors, -exponent)


def minkowski_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lorentz inner product along the last axis (signature +...+-)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.sum(x[..., :-1] * y[..., :-1], axis=-1) - x[..., -1] * y[..., -1]


def safe_acosh(x):
    """arccosh with the argument clamped up to 1 to absorb roundoff."""
    return np.arccosh(np.maximum(x, 1.0))


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit vector in R^{n+1}, i.e. a point of the ideal boundary sphere S^n."""

    vector: np.ndarray

    def __post_init__(self):
        vec = _as_readonly(self.vector)
        if vec.ndim != 1 or vec.size < 2:
            raise ValueError("direction must be a vector in R^{n+1} with n >= 1")
        if not np.all(np.isfinite(vec)):
            raise ValueError("direction has non-finite entries")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"direction must be unit length, got |v| = {norm!r}")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_vector(cls, vec) -> "Direction":
        """Normalize an arbitrary nonzero vector into a Direction."""
        arr = pow2_scaled(np.asarray(vec, dtype=np.float64))
        norm = float(np.linalg.norm(arr))
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(arr / norm)

    @property
    def n(self) -> int:
        return self.vector.size - 1


@dataclass(frozen=True, eq=False)
class HyperboloidPoint:
    """Point on the upper sheet: coords in R^{n+2}, <X, X> = -1, last coord > 0."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.coords)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("hyperboloid point needs at least 3 coordinates")
        # In Python floats a square past the float range is inf, without a
        # warning: such a point (|X_i| >= 2^512, past r ~ 355) reads a defect
        # that is inf or nan and counts as off the sheet.
        *space, t = arr.tolist()
        q = sum(v * v for v in space) - t * t
        # The form's conditioning degrades like cosh^2 of the radius, so the
        # defect tolerance scales with the point's magnitude.
        if not math.isfinite(q) or abs(q + 1.0) > SHEET_TOL * (1.0 + t * t):
            raise ValueError(f"point is off the unit hyperboloid: <X,X> = {q!r}")
        if arr[-1] <= 0.0:
            raise ValueError("point lies on the lower sheet")
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.size - 2


@dataclass(frozen=True, eq=False)
class BallPoint:
    """Point of the Poincare ball model: vector in R^{n+1} with |Y| < 1."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.coords)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("ball point needs at least 2 coordinates")
        if float(np.linalg.norm(arr)) >= 1.0:
            raise ValueError("ball point must have norm < 1")
        object.__setattr__(self, "coords", arr)


def polar_point(r: float, theta: Direction) -> HyperboloidPoint:
    """Point at geodesic distance r from O in boundary direction theta.

    Coordinates are (sinh(r) * theta, cosh(r)); r = 0 gives O for any theta.
    """
    if r < 0.0:
        raise ValueError("polar radius must be nonnegative")
    coords = np.append(np.sinh(r) * theta.vector, np.cosh(r))
    return HyperboloidPoint(coords)


# ---------------------------------------------------------------------------
# model conversions
# ---------------------------------------------------------------------------

_MODEL_TYPES = {"hyperboloid": HyperboloidPoint, "ball": BallPoint}


def convert_model(point, target: str):
    """Convert a point between the hyperboloid and ball models.

    target is "hyperboloid" or "ball". The conversions are exact up to
    roundoff: Y = X_spatial / (1 + X_last), and back X = (2 Y, 2 - s) / s
    with s = 1 - |Y|^2. Converting to the model the point is already in
    returns the point.
    """
    if target not in _MODEL_TYPES:
        raise ValueError(f"unknown model {target!r}")
    if not isinstance(point, (HyperboloidPoint, BallPoint)):
        raise TypeError(f"not a model point: {type(point).__name__}")
    if isinstance(point, _MODEL_TYPES[target]):
        return point
    coords = point.coords
    if target == "ball":
        return BallPoint(coords[:-1] / (1.0 + coords[-1]))
    s = 1.0 - float(np.dot(coords, coords))
    return HyperboloidPoint(np.append(2.0 * coords / s, (2.0 - s) / s))


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def _lorentz_form(dim: int) -> np.ndarray:
    eta = np.eye(dim)
    eta[-1, -1] = -1.0
    return eta


@dataclass(frozen=True, eq=False)
class Isometry:
    """Orientation-agnostic isometry of H^{n+1}: a Lorentz matrix M.

    M preserves the bilinear form (M^T eta M = eta) and the upper sheet
    (lower-right entry positive). The product M^T eta M carries roundoff of
    the size of the largest squared entry, so the defect is measured against
    LORENTZ_TOL times max(1, max |M_ij|)^2. A boost by d has entries of size
    cosh d; it passes up to d ~ 355, where their squares leave the floats.
    Only the tests of invariance move bodies by one.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_readonly(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 3:
            raise ValueError("isometry matrix must be square, size >= 3")
        eta = _lorentz_form(mat.shape[0])
        defect = float(np.max(np.abs(mat.T @ eta @ mat - eta)))
        size = max(1.0, float(np.max(np.abs(mat))))
        if not defect <= LORENTZ_TOL * size * size:
            raise ValueError(f"matrix is not Lorentz: defect {defect!r}")
        if mat[-1, -1] <= 0.0:
            raise ValueError("matrix swaps the hyperboloid sheets")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 2

    @classmethod
    def boost(cls, direction: Direction, distance: float) -> "Isometry":
        """Translation by `distance` along the geodesic from O toward `direction`.

        Maps O to polar_point(distance, direction); negative distance moves
        the other way.
        """
        u = direction.vector
        dim = u.size + 1
        mat = np.eye(dim)
        mat[:-1, :-1] += (np.cosh(distance) - 1.0) * np.outer(u, u)
        mat[:-1, -1] = np.sinh(distance) * u
        mat[-1, :-1] = np.sinh(distance) * u
        mat[-1, -1] = np.cosh(distance)
        return cls(mat)

    @classmethod
    def rotation_between(cls, a: Direction, b: Direction) -> "Isometry":
        """Rotation of the spatial factor R^{n+1} taking direction a to b.

        The rotation turns the plane of a and b and fixes its orthogonal
        complement. For dot(a, b) < 0 it is built as two reflections, which
        stays orthogonal to roundoff however close a comes to -b; the
        closed form divides by 1 + dot(a, b) and only serves the other half.
        """
        av, bv = a.vector, b.vector
        if av.size != bv.size:
            raise ValueError("directions live in different dimensions")
        k = av.size
        dot = float(np.dot(av, bv))
        if dot >= 0.0:
            s = av + bv
            rot = np.eye(k) + 2.0 * np.outer(bv, av) - np.outer(s, s) / (1.0 + dot)
        else:
            # The mirror normal to a - b sends a to b; a second mirror, normal
            # to the part of a orthogonal to b, fixes b and restores the
            # orientation. Near a = -b that part is tiny and carries the
            # cancellation error, hence the second projection; for a = -b
            # any plane through a will do.
            w = av - dot * bv
            w -= float(np.dot(w, bv)) * bv
            norm = float(np.linalg.norm(w))
            if norm < 1e-300:
                w = np.zeros(k)
                w[0 if abs(bv[0]) < 0.9 else 1] = 1.0
                w -= float(np.dot(w, bv)) * bv
                norm = float(np.linalg.norm(w))
            w /= norm
            d = (av - bv) / float(np.linalg.norm(av - bv))
            rot = (np.eye(k) - 2.0 * np.outer(w, w)) @ (np.eye(k) - 2.0 * np.outer(d, d))
        mat = np.eye(k + 1)
        mat[:-1, :-1] = rot
        return cls(mat)

