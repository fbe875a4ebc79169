"""Direct solution of the reduced symmetric positive definite system.

A sparse LU factorization in symmetric mode (diagonal pivoting, symmetric
fill-reducing ordering) plays the role of a Cholesky-type factorization:
positive pivots certify positive definiteness, and iterative refinement
pushes the relative residual below the contract tolerance even for the
severely ill-conditioned systems produced at high slenderness, where the
bending block scales with the cube of the thickness.

Residuals are evaluated in extended precision.  The loads of thin-shell
problems scale with t^3 while the stiffness row magnitudes scale with t, so
the residual F - K U cancels many orders of magnitude; evaluated in double
precision it bottoms out at eps * || |K| |U| ||, which can exceed the
tolerance no matter how accurate U is.  Refining against the extended
residual removes that measurement floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import IndefiniteSystemError, NumericalError, SingularSystemError

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SparseSymmetric:
    """Symmetric sparse matrix: its upper triangle and the full CSR form.

    Both are built once.  The upper triangle keeps the stored pattern
    (explicit zeros included); the full form mirrors it, so it is exactly
    symmetric whatever roundoff the input carried.
    """

    n: int
    upper: sp.csr_matrix
    full: sp.csr_matrix

    @staticmethod
    def from_csr(K: sp.csr_matrix) -> "SparseSymmetric":
        upper = sp.triu(sp.csr_matrix(K), format="csr")
        upper.sort_indices()
        full = sp.csr_matrix(upper + sp.triu(upper, k=1).T)
        return SparseSymmetric(K.shape[0], upper, full)

    def to_csr(self) -> sp.csr_matrix:
        """The full form; the stored matrix itself, not a copy."""
        return self.full

    @property
    def nnz(self) -> int:
        return self.upper.nnz


def _as_csr(K) -> sp.csr_matrix:
    return K.to_csr() if isinstance(K, SparseSymmetric) else sp.csr_matrix(K)


def relative_residual(K, U: np.ndarray, F: np.ndarray) -> float:
    """||K U - F||_2 / ||F||_2 with the matrix-vector product in extended precision."""
    A = _as_csr(K)
    Fl = np.asarray(F, dtype=np.longdouble)
    r = Fl - A @ np.asarray(U, dtype=np.longdouble)
    nf = np.linalg.norm(Fl.astype(float))
    if nf == 0.0:
        return float(np.linalg.norm(r.astype(float)))
    return float(np.linalg.norm(r.astype(float)) / nf)


def _symmetric_lu(M: sp.csr_matrix):
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _pivots_clean(lu) -> bool:
    pivots = lu.U.diagonal()
    if not np.all(np.isfinite(pivots)):
        return False
    scale = float(np.max(np.abs(pivots)))
    return not np.any(pivots < -1e-12 * scale)


def _nearest_zero_eig(A, lu) -> float:
    """Rayleigh quotient after inverse iteration toward the eigenvalue
    nearest zero, using ``lu`` as the (possibly shifted) inverse."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(A.shape[0])
    x /= np.linalg.norm(x)
    rayleigh = 0.0
    for _ in range(12):
        x = lu.solve(x)
        nx = np.linalg.norm(x)
        if not np.isfinite(nx) or nx == 0.0:
            return np.nan
        x /= nx
        rayleigh = float(x @ (A @ x))
    return rayleigh


def _shifted_factor(A: sp.csr_matrix, reason: str):
    """Shifted factorization fallback with an indefiniteness check.

    A tiny diagonal shift keeps diagonal pivoting away from roundoff-scale
    pivots; the result is a valid refinement preconditioner for the
    unshifted system.  "Semi-definite at roundoff" is separated from
    "indefinite" by inverse iteration toward the eigenvalue nearest zero.
    """
    sigma = 1e-13 * float(np.max(A.diagonal()))
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise SingularSystemError(f"no positive diagonal to shift: {reason}")
    shifted = sp.csr_matrix(A + sigma * sp.identity(A.shape[0], format="csr"))
    try:
        lu = _symmetric_lu(shifted)
    except RuntimeError:
        try:
            lu = splu(shifted.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(f"{reason}; {exc}") from exc
    rayleigh = _nearest_zero_eig(A, lu)
    if np.isnan(rayleigh):
        raise SingularSystemError(f"rank deficient: {reason}")
    if rayleigh < -1e-10 * float(abs(A).max()):
        raise IndefiniteSystemError(
            f"eigenvalue {rayleigh:.3e} nearest zero is negative: "
            "system is indefinite")
    return lu


def _factor_checked(A: sp.csr_matrix):
    """Factor a symmetric matrix, certifying positive (semi)definiteness.

    The primary path uses diagonal pivoting in symmetric mode: all-positive
    pivots certify positive definiteness.  Corner-interpolated assumed-strain
    patches can carry interior zero-energy membrane modes; their roundoff
    pivots are tolerated, but they can also make diagonal pivoting break
    down (division by a roundoff pivot), in which case the shifted fallback
    is used.  Returns (lu, used_fallback).
    """
    sym_fail = None
    try:
        lu = _symmetric_lu(A)
        if _pivots_clean(lu):
            return lu, False
        sym_fail = "non-positive pivots in symmetric factorization"
    except RuntimeError as exc:
        sym_fail = str(exc)
    return _shifted_factor(A, sym_fail), True


def solve_spd(K, F: np.ndarray, rtol: float = RESIDUAL_RTOL,
              max_refine: int = 400) -> np.ndarray:
    """Solve K U = F for symmetric positive definite K.

    ``K`` may be a :class:`SparseSymmetric` or any scipy sparse matrix.
    Raises :class:`IndefiniteSystemError` on a non-positive pivot,
    :class:`SingularSystemError` on factorization breakdown, and
    :class:`NumericalError` if iterative refinement cannot reach
    ``||KU - F|| <= max(rtol, floor) ||F||``, where ``floor`` is the
    evaluation floor of the returned U (see :func:`_refine`).
    """
    A = _as_csr(K)
    F = np.asarray(F, dtype=float)
    norm_f = np.linalg.norm(F)
    if norm_f == 0.0:
        return np.zeros_like(F)

    lu, used_fallback = _factor_checked(A)
    Al, absA = A.astype(np.longdouble), abs(A)
    rel, floor, U, _ = _refine(lu, Al, absA, F, norm_f, rtol, max_refine)
    if rel > max(rtol, floor) and not used_fallback:
        # primary factors can be polluted by a roundoff pivot of a
        # zero-energy mode (refinement then stalls or diverges); retry
        # against the shifted factorization
        lu = _shifted_factor(A, "refinement stalled on primary factors")
        retry = _refine(lu, Al, absA, F, norm_f, rtol, max_refine)
        if retry[0] < rel:
            rel, floor, U, _ = retry
    if rel <= max(rtol, floor):
        return U
    raise NumericalError(f"residual {rel:.3e} above tolerance {rtol:.1e} "
                         f"and above the evaluation floor {floor:.3e} "
                         f"after {max_refine} refinement steps")


def _floor(absA, U, norm_f) -> float:
    """Attainable-accuracy floor of the relative residual at U.

    Evaluating F - K U at unit roundoff u leaves noise ~ u * || |K| |U| || no
    matter how accurate U is.  Self-equilibrated thin-shell systems cancel up
    to ~10 orders between K U products and F, so the floor can sit above
    rtol; a solve at the floor is as good as the arithmetic can certify.
    """
    return float(np.finfo(np.longdouble).eps
                 * np.linalg.norm(absA @ np.abs(U).astype(float)) / norm_f)


def _refine(lu, Al, absA, F, norm_f, rtol, max_refine):
    """Iterative refinement with residuals in extended precision.

    ``Al`` is the matrix cast to long double and ``absA`` its entrywise
    absolute value.  Returns (rel, floor, U, reason) for the iterate U with
    the smallest relative residual rel, its evaluation floor (:func:`_floor`)
    and why refinement stopped: ``"rtol"`` once rel <= rtol, ``"floor"`` once
    the best iterate is at or below its floor and a step fails to halve its
    residual, ``"stall"`` after 30 steps without halving, on divergence (a
    polluted factorization) or after ``max_refine`` steps.  The refined
    iterate keeps its extended-precision bits: rounding it to float64 would
    perturb K @ U by ~eps * || |K| |U| ||, which for loads scaling with t^3
    can exceed rtol * ||F|| on its own.
    """
    Fl = F.astype(np.longdouble)
    U = lu.solve(F).astype(np.longdouble)
    best = None
    since_improved = 0
    reason = "stall"
    for _ in range(max_refine):
        r = Fl - Al @ U
        rel = float(np.linalg.norm(r.astype(float)) / norm_f)
        halved = best is None or rel < 0.5 * best[0]
        if halved or rel < best[0]:
            best = (rel, _floor(absA, U, norm_f), U.copy())
        since_improved = 0 if halved else since_improved + 1
        if rel <= rtol:
            reason = "rtol"
            break
        if not halved and best[0] <= best[1]:
            reason = "floor"
            break
        if since_improved >= 30 or rel > 1e3 * best[0]:
            break
        U = U + lu.solve(r.astype(float))
    return best + (reason,)
