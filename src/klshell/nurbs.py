"""Knot vectors, B-spline/NURBS basis evaluation and tensor-product surfaces.

Open (clamped) knot vectors without repeated interior knots, basis function
values with derivatives up to second order, rational surface evaluation via
homogeneous coordinates, and geometry-preserving refinement by knot insertion.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Open knot vector with simple interior knots.

    ``n_basis = len(knots) - degree - 1`` basis functions are defined; the
    first and last knot must each repeat exactly ``degree + 1`` times.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        p = self.degree
        if p < 0:
            raise ValueError(f"degree must be nonnegative, got {p}")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) < 0.0):
            raise ValueError("knots must be nondecreasing")
        n = len(knots) - p - 1
        if n < p + 1:
            raise ValueError(f"need at least {2 * (p + 1)} knots for degree {p}")
        if np.any(knots[: p + 1] != knots[0]) or np.any(knots[-(p + 1):] != knots[-1]):
            raise ValueError("knot vector must be open (clamped)")
        if knots[0] == knots[-1]:
            raise ValueError("knot vector spans an empty interval")
        interior = knots[p + 1 : n]
        if interior.size and (np.any(np.diff(interior) == 0.0)
                              or np.any(interior == knots[0])
                              or np.any(interior == knots[-1])):
            raise ValueError("interior knots must be simple")

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def start(self) -> float:
        return float(self.knots[0])

    @property
    def end(self) -> float:
        return float(self.knots[-1])


def find_spans(kv: KnotVector, theta) -> np.ndarray:
    """Span indices i with knots[i] <= theta < knots[i+1] of the points ``theta``.

    The right endpoint maps to the last nonempty span so that boundary
    points remain evaluable.
    """
    k, n = kv.knots, kv.n_basis
    theta = np.asarray(theta, dtype=float)
    outside = ~((theta >= k[0]) & (theta <= k[-1]))  # NaN is outside
    if np.any(outside):
        raise DomainError(f"parameter {theta[outside].flat[0]} outside knot range "
                          f"[{k[0]}, {k[-1]}]")
    return np.minimum(np.searchsorted(k, theta, side="right") - 1, n - 1)


def _basis_ders_at_span(knots, p, span, theta, order):
    """B-spline values and derivatives on arrays of (span, theta).

    ``span`` and ``theta`` broadcast to a common shape (...); returns
    (order+1, p+1, ...).  The recurrence (The NURBS Book, A2.3) runs
    elementwise over the points and loops over the degree only.
    """
    span, theta = np.broadcast_arrays(np.asarray(span), np.asarray(theta, dtype=float))
    left = [None] + [theta - knots[span + 1 - j] for j in range(1, p + 1)]
    right = [None] + [knots[span + j] - theta for j in range(1, p + 1)]
    ndu = [[np.ones(theta.shape)] * (p + 1) for _ in range(p + 1)]
    for j in range(1, p + 1):
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved

    ders = np.zeros((order + 1, p + 1) + theta.shape)
    for r in range(p + 1):
        ders[0, r] = ndu[r][p]
        a = [[1.0] * (p + 1), [1.0] * (p + 1)]
        s1, s2 = 0, 1
        for k in range(1, min(order, p) + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                d = a[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                d += a[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                d += a[s2][k] * ndu[r][pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, min(order, p) + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


@dataclass(frozen=True, eq=False)
class NurbsSurface:
    """Rational tensor-product surface with a weighted control net.

    ``ctrl`` has shape (n_u, n_v, 3) in length units and ``weights``
    (n_u, n_v), all strictly positive.
    """

    kv_u: KnotVector
    kv_v: KnotVector
    ctrl: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ctrl = np.asarray(self.ctrl, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        nu, nv = self.kv_u.n_basis, self.kv_v.n_basis
        if ctrl.shape != (nu, nv, 3):
            raise ValueError(f"control grid shape {ctrl.shape} != {(nu, nv, 3)}")
        if w.shape != (nu, nv):
            raise ValueError(f"weight grid shape {w.shape} != {(nu, nv)}")
        if not (np.all(np.isfinite(ctrl)) and np.all(np.isfinite(w))):
            raise ValueError("control points and weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("all weights must be strictly positive")
        ctrl.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "ctrl", ctrl)
        object.__setattr__(self, "weights", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.kv_u.n_basis, self.kv_v.n_basis

    @property
    def n_cp(self) -> int:
        nu, nv = self.shape
        return nu * nv

    def homogeneous(self) -> np.ndarray:
        """Control net in projective form (wx, wy, wz, w), shape (n_u, n_v, 4)."""
        h = np.empty(self.shape + (4,))
        h[..., :3] = self.ctrl * self.weights[..., None]
        h[..., 3] = self.weights
        return h


# Rows of the batched rational evaluator: the value and the parametric
# derivatives 1, 2, 11, 22, 12, as (d1, d2) derivative orders per direction.
_DERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


def rational_eval(surface: NurbsSurface, su, sv, t1, t2, order: int = 2) -> np.ndarray:
    """Rational basis functions and surface derivatives at arrays of points.

    The points (t1, t2) lie in the spans (su, sv); the four arrays broadcast
    to a common shape (...).  Returns R, C-contiguous (k, ..., nfun + 4), with
    k = 1, 3 or 6 rows for order 0, 1 or 2 in the row order (value, 1, 2, 11,
    22, 12).  Columns [:nfun] hold the rational basis functions supported on
    the span pair (u-major), [nfun:nfun+3] the position and [-1] the constant
    1: one quotient rule on the numerators [w_A B_A | sum_A B_A (w_A P_A, w_A)]
    gives both.  They are built in contiguous column planes, each sum from
    zero in the order of A.
    """
    if order > 2:
        raise ValueError(f"derivative order {order} unsupported (max 2)")
    pu, pv = surface.kv_u.degree, surface.kv_v.degree
    pad = np.broadcast(su, sv, t1, t2).ndim - np.broadcast(su, sv).ndim
    su, sv = (s[(None,) * pad] for s in np.broadcast_arrays(su, sv))  # ndim of the points
    Du = _basis_ders_at_span(surface.kv_u.knots, pu, su, t1, order)
    Dv = _basis_ders_at_span(surface.kv_v.knots, pv, sv, t2, order)
    shape = np.broadcast_shapes(Du.shape[2:], Dv.shape[2:])
    iu = su - pu + np.arange(pu + 1).reshape((-1, 1) + su.ndim * (1,))
    iv = sv - pv + np.arange(pv + 1).reshape((-1,) + sv.ndim * (1,))
    H = surface.homogeneous().reshape(-1, 4).T[:, iu * surface.kv_v.n_basis + iv]
    H = np.ascontiguousarray(np.broadcast_to(H, H.shape[:3] + shape)).reshape((4, -1) + shape)
    d1, d2 = np.array(_DERS[:(1, 3, 6)[order]]).T
    B = np.empty((pu + 1, pv + 1, len(d1)) + shape)  # B[a, b, k] = Du[d1k, a] Dv[d2k, b]
    np.multiply(np.swapaxes(Du[d1], 0, 1)[:, None], np.swapaxes(Dv[d2], 0, 1)[None], out=B)
    B = B.reshape((-1,) + B.shape[2:])
    S = np.empty((len(B) + 4,) + B.shape[1:])  # planes [w_A B_A | sum_A B_A H_A]
    np.multiply(B, H[3, :, None], out=S[:-4])
    sums, term = S[-4:], np.empty(S[-4:].shape)
    sums[...] = 0.0
    for A in range(len(B)):
        np.add(sums, np.multiply(B[A], H[:, A, None], out=term), out=sums)
    W, R = S[-1].copy(), S  # the quotient rule R = S / W, row by row, in place
    np.divide(S[:, 0], W[0], out=R[:, 0])
    for a in range(1, min(len(d1), 3)):
        np.divide(S[:, a] - R[:, 0] * W[a], W[0], out=R[:, a])
    if len(d1) > 3:
        for aa, a in ((3, 1), (4, 2)):
            np.divide(S[:, aa] - 2.0 * R[:, a] * W[a] - R[:, 0] * W[aa], W[0], out=R[:, aa])
        np.divide(S[:, 5] - R[:, 1] * W[2] - R[:, 2] * W[1] - R[:, 0] * W[5], W[0], out=R[:, 5])
    return np.ascontiguousarray(np.moveaxis(R, 0, -1))


def surface_eval(surface: NurbsSurface, t1: float, t2: float, order: int = 2):
    """Evaluate position and parametric derivatives of the surface.

    Returns (r,) for order 0, (r, r1, r2) for order 1 and
    (r, r1, r2, r11, r22, r12) for order 2.
    """
    su, sv = find_spans(surface.kv_u, t1), find_spans(surface.kv_v, t2)
    return tuple(rational_eval(surface, su, sv, t1, t2, order)[:, -4:-1])


# ---------------------------------------------------------------------------
# Knot insertion
# ---------------------------------------------------------------------------

def insert_knots(surface: NurbsSurface, direction: str, values) -> NurbsSurface:
    """Insert each value once in the given direction ('u' or 'v').

    Values already present in the knot vector (to 1e-12) are skipped so the
    simple-interior-knot invariant is preserved.  Geometry is unchanged.
    The homogeneous net is kept as a list of rows across the insertion
    direction; each knot replaces the p - 1 rows it changes with p new ones
    (Boehm's insertion, The NURBS Book A5.1).
    """
    if direction not in ("u", "v"):
        raise ValueError(f"direction must be 'u' or 'v', got {direction!r}")
    axis = "uv".index(direction)
    kvs = [surface.kv_u, surface.kv_v]
    knots, p = list(kvs[axis].knots), kvs[axis].degree
    rows = list(np.moveaxis(surface.homogeneous(), axis, 0))
    for ubar in values:
        if not knots[0] < ubar < knots[-1]:  # false for NaN as well
            raise DomainError(f"knot {ubar} outside open range")
        ubar = float(ubar)
        k = bisect.bisect_right(knots, ubar) - 1
        if min(ubar - knots[k], knots[k + 1] - ubar) < 1e-12:
            continue
        new = []
        for i in range(k - p + 1, k + 1):
            alpha = (ubar - knots[i]) / (knots[i + p] - knots[i])
            new.append(alpha * rows[i] + (1.0 - alpha) * rows[i - 1])
        rows = rows[:k - p + 1] + new + rows[k:]
        knots.insert(k + 1, ubar)
    kvs[axis] = KnotVector(knots, p)
    net = np.moveaxis(np.stack(rows), 0, axis)
    return NurbsSurface(*kvs, net[..., :3] / net[..., 3:], net[..., 3])


def make_uniform(surface: NurbsSurface, n_u: int, n_v: int) -> NurbsSurface:
    """Refine to a uniform n_u x n_v element mesh over the parametric square.

    Assumes the knot ranges are [0, 1]; inserts the missing knots i/n in each
    direction.  For n a power of two this produces the same knot multiset as
    repeated bisection, hence the identical refined surface.
    """
    if n_u < 1 or n_v < 1:
        raise ValueError(f"need at least one element per direction, got {n_u} x {n_v}")
    s = surface
    for direction, n in (("u", n_u), ("v", n_v)):
        kv = s.kv_u if direction == "u" else s.kv_v
        if not (kv.start == 0.0 and kv.end == 1.0):
            raise ValueError("make_uniform expects knot ranges [0, 1]")
        s = insert_knots(s, direction, [i / n for i in range(1, n)])
    return s
