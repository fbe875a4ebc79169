"""Direct solution of the reduced symmetric positive definite system.

:func:`solve_spd` returns a :class:`SolveTrace`: the solution, its residual
and evaluation floor, why it was accepted and on which factor.

The primary factorization is LAPACK banded Cholesky in the order the
system arrives in: the natural control-point order of a tensor-product
patch keeps the stiffness in a narrow band, and a Cholesky that completes
with positive pivots certifies positive definiteness.  The system is one
full, symmetric CSR matrix; the upper part of its row i is read into column
i of LAPACK's lower band storage, in order.  Systems the band
rejects, and those outside its work guard (see ``_BAND_MIN_WORK``), go to a
sparse LU factorization in symmetric mode (diagonal pivoting, symmetric
fill-reducing ordering), which tolerates the roundoff pivots of zero-energy
modes, and then to a shifted retry.  Iterative refinement
pushes the relative residual below ``RESIDUAL_RTOL`` even for the
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
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

from .errors import IndefiniteSystemError, NumericalError, SingularSystemError

RESIDUAL_RTOL = 1e-10
_MAX_REFINE = 400

# Banded Cholesky is tried only while _BAND_MIN_WORK <= n bw^2 <=
# _BAND_MAX_WORK n^1.5 (n the dof count, bw the half-bandwidth; n bw^2 is
# the band factor's work).  Band extraction and factor (lower layout)
# against SuperLU in symmetric mode; cas meshes, the strip cs (its cas band
# stops at the zero-energy mode), in control-point order; 1 core, min of
# 3-7 runs, one at 128x128, 160x160 measured in the upper layout only:
#   strip 256x1           n  2310  bw   26   1.0 ms vs   3.8 ms
#   hypar 16x8            n   466  bw   64   0.5 ms vs   2.0 ms
#   hypar 32x16           n  1698  bw  112   2.1 ms vs    13 ms
#   hypar 128x64          n 25218  bw  400   0.14 s vs   0.67 s
#   hemisphere 16x16      n   899  bw  116   1.0 ms vs   5.0 ms
#   hemisphere 64x64      n 12803  bw  404  0.068 s vs   0.31 s
#   hemisphere 128x128    n 50179  bw  788   0.87 s vs    2.4 s
#   hemisphere 160x160    n 78083  bw  980    3.8 s vs    7.5 s
# Upper bound: square meshes have bw^2 ~ 12 n, so the band's work grows as
# n^2 against SuperLU's ~n^1.5.  The time ratio is 0.37 at 128x128 (0.44
# in the upper layout) and was 0.51 at 160x160 (n bw^2 = 2800 and 3400
# n^1.5).  The bound lies below 8800 n^1.5, where the upper layout's ratio
# reached 1 extrapolated from 0.57 and 0.69 at 4900 and 6100 n^1.5 (these
# meshes with wider bands); larger systems are not measured.  At 160x160
# the band (613 MB) is below SuperLU's L+U (52M nonzeros).  A matrix with
# long-range couplings (bw ~ n) passes it only below ~350 dofs.  Lower
# bound: below it the band saves at most a few milliseconds a solve, so
# small systems (strips up to 512 elements, hypar 16x8) stay on SuperLU,
# whose factorizations perfbench/tracer.py counts at ``splu``.
_BAND_MIN_WORK = 4_000_000
_BAND_MAX_WORK = 6500


def relative_residual(K, U: np.ndarray, F: np.ndarray) -> float:
    """||K U - F||_2 / ||F||_2 with the matrix-vector product in extended precision."""
    Fl = np.asarray(F, dtype=np.longdouble)
    r = Fl - K @ np.asarray(U, dtype=np.longdouble)
    nf = np.linalg.norm(Fl.astype(float))
    if nf == 0.0:
        return float(np.linalg.norm(r.astype(float)))
    return float(np.linalg.norm(r.astype(float)) / nf)


@dataclass(frozen=True, eq=False)
class SolveTrace:
    """An accepted solve: the solution, its residual and how it got there."""

    U: np.ndarray        # refined iterate (long double unless F = 0)
    residual: float      # ||K U - F|| / ||F||, extended-precision product
    floor: float         # evaluation floor at U (see _floor)
    reason: str          # "rtol" (residual <= RESIDUAL_RTOL) or "floor"
    path: str            # factor refined against: "band", "superlu", "shifted"
                         # ("none" for F = 0)


# A band pivot at most this fraction of its diagonal entry does not certify
# definiteness.  Pivots of the cas zero-energy mode are roundoff of either
# sign, 4e-15 to 2e-14 of their diagonal (Scordelis-Lo roof 8x8 to 32x32,
# half-bandwidths 60 to 204); the smallest pivot of a definite benchmark
# system is 2.4e-8 of its diagonal (hypar L/t 1e4, 32x16 to 128x64), 4.4e-8
# for the hemisphere at R/t 2.5e4 (64x64, 128x128).
_BAND_PIVOT_FLOOR = 1e-12


class _BandCholesky:
    """Banded Cholesky factor of LAPACK lower band storage ``ab``.

    Raises LinAlgError unless every pivot is finite and above
    _BAND_PIVOT_FLOOR times its diagonal entry; a finite diagonal of the
    factor implies a finite factor, since each column's off-diagonal entries
    feed its own pivot.
    """

    def __init__(self, ab: np.ndarray):
        floor = _BAND_PIVOT_FLOOR * ab[0]
        self.cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        pivots = self.cb[0] ** 2
        if not np.all(np.isfinite(pivots) & (pivots > floor)):
            raise LinAlgError("roundoff-scale or non-finite pivot in banded Cholesky")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self.cb, True), b, check_finite=False)


def _factorize(path: str, M):
    """Factor ``M`` along ``path``; every factorization of a solve is made here.

    "band": banded Cholesky of lower band storage; "superlu": SuperLU in
    symmetric mode (diagonal pivoting, MMD ordering of A^T + A).  The factor
    has a ``solve`` method.
    """
    if path == "band":
        return _BandCholesky(M)
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _lower_band(A: sp.csr_matrix) -> np.ndarray | None:
    """LAPACK lower band storage of the symmetric matrix whose upper triangle
    is that of a canonical CSR matrix, or None if its band work fails the
    guard (see ``_BAND_MIN_WORK``).  Row i's upper part is column i of the
    band (ab[j - i, i] = A[i, j]), written in order."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    offset = A.indices - rows
    bw = int(offset.max(initial=0))
    if not _BAND_MIN_WORK <= n * bw * bw <= _BAND_MAX_WORK * n ** 1.5:
        return None
    upper = offset >= 0
    ab = np.zeros((bw + 1, n), order="F")  # LAPACK's layout: factored in place
    ab[offset[upper], rows[upper]] = A.data[upper]
    return ab


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
        lu = _factorize("superlu", shifted)
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

    Banded Cholesky of ``A`` in lower band storage comes first:
    if it completes, its positive pivots certify positive definiteness.
    Corner-interpolated assumed-strain patches can carry interior zero-energy
    membrane modes, whose roundoff pivots stop Cholesky; those systems, and
    bands outside the guard, go to diagonal pivoting in symmetric mode,
    which tolerates the roundoff pivots (all-positive pivots certify).  When
    diagonal pivoting breaks down too (division by a roundoff pivot), the
    shifted fallback is used.  Returns (factor, path) with path "band",
    "superlu" or "shifted".
    """
    ab = _lower_band(A)
    if ab is not None:
        try:
            return _factorize("band", ab), "band"
        except LinAlgError:
            del ab  # the failed factor is not kept while SuperLU runs
    try:
        lu = _factorize("superlu", A)
        if _pivots_clean(lu):
            return lu, "superlu"
        sym_fail = "non-positive pivots in symmetric factorization"
    except RuntimeError as exc:
        sym_fail = str(exc)
    return _shifted_factor(A, sym_fail), "shifted"


def solve_spd(K, F: np.ndarray) -> SolveTrace:
    """Solve K U = F for symmetric positive definite K; return a SolveTrace.

    ``K`` is a symmetric CSR matrix, as ``elements.apply_constraints``
    returns it, or anything ``scipy.sparse.csr_matrix`` accepts.  A
    non-positive pivot only sends the system down the fallback ladder (see
    :func:`_factor_checked`).  Raises ValueError, before any factorization,
    if K is not square, F's shape is not (K's row count,), or K or F is not
    finite, :class:`IndefiniteSystemError` when inverse iteration on the shifted
    factor finds a negative eigenvalue, :class:`SingularSystemError` on
    factorization breakdown, and :class:`NumericalError` if iterative
    refinement cannot reach ``||KU - F|| <= max(RESIDUAL_RTOL, floor) ||F||``,
    where ``floor`` is the evaluation floor of the returned U (see :func:`_refine`).
    """
    A = sp.csr_matrix(K)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    F = np.asarray(F, dtype=float)
    if A.shape[0] != A.shape[1] or F.shape != A.shape[:1]:
        raise ValueError(f"K of shape {A.shape} and F of shape {F.shape} do not "
                         "make a square system")
    for name, v in (("K", A.data), ("F", F)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} holds a NaN or an infinity")
    if not np.any(F):
        return SolveTrace(np.zeros_like(F), 0.0, 0.0, "rtol", "none")
    # refine on F scaled by a power of two to max|F| in [0.5, 1): exact, and
    # its 2-norm cannot underflow however small the load
    e = int(np.frexp(np.max(np.abs(F)))[1])
    F = np.ldexp(F, -e)
    norm_f = np.linalg.norm(F)

    factor, path = _factor_checked(A)
    # on A's own index arrays, which astype and abs would copy
    Al = sp.csr_matrix((A.data.astype(np.longdouble), A.indices, A.indptr), shape=A.shape)
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    rel, floor, U, steps = _refine(factor, Al, absA, F, norm_f)
    if rel > max(RESIDUAL_RTOL, floor) and path != "shifted":
        # primary factors can be polluted by a roundoff pivot of a
        # zero-energy mode (refinement then stalls or diverges); retry
        # against the shifted factorization
        factor = _shifted_factor(A, "refinement stalled on primary factors")
        retry = _refine(factor, Al, absA, F, norm_f)
        if retry[0] < rel:
            rel, floor, U, steps = retry
            path = "shifted"
    if rel <= max(RESIDUAL_RTOL, floor):
        reason = "rtol" if rel <= RESIDUAL_RTOL else "floor"
        return SolveTrace(np.ldexp(U, e), rel, floor, reason, path)
    raise NumericalError(f"residual {rel:.3e} above tolerance {RESIDUAL_RTOL:.1e} "
                         f"and above the evaluation floor {floor:.3e} "
                         f"after {steps} refinement steps on the {path} factor")


def _floor(absA, U, norm_f) -> float:
    """Attainable-accuracy floor of the relative residual at U.

    Evaluating F - K U at unit roundoff u leaves noise ~ u * || |K| |U| || no
    matter how accurate U is.  Self-equilibrated thin-shell systems cancel up
    to ~10 orders between K U products and F, so the floor can sit above
    the tolerance; a solve at the floor is as good as the arithmetic can certify.
    """
    return float(np.finfo(np.longdouble).eps
                 * np.linalg.norm(absA @ np.abs(U).astype(float)) / norm_f)


def _refine(factor, Al, absA, F, norm_f):
    """Iterative refinement with residuals in extended precision.

    ``Al`` is the matrix cast to long double and ``absA`` its entrywise
    absolute value.  Returns (rel, floor, U, steps): the iterate U with the
    smallest relative residual rel, its evaluation floor (:func:`_floor`),
    and the number of steps (corrections) taken; :func:`solve_spd`
    alone decides from them whether U is accepted, and on which ground.
    Refinement stops once rel <= RESIDUAL_RTOL, once the best iterate is at
    or below its floor and a step fails to halve its residual, after 30
    steps without halving, on divergence (a polluted factorization) or
    after ``_MAX_REFINE`` steps.
    The refined iterate keeps its extended-precision bits: rounding it to
    float64 would perturb K @ U by ~eps * || |K| |U| ||, which for loads
    scaling with t^3 can exceed RESIDUAL_RTOL * ||F|| on its own.
    """
    Fl = F.astype(np.longdouble)
    U = factor.solve(F).astype(np.longdouble)
    best = None
    since_improved = steps = 0
    for _ in range(_MAX_REFINE):
        r = Fl - Al @ U
        rel = float(np.linalg.norm(r.astype(float)) / norm_f)
        halved = best is None or rel < 0.5 * best[0]
        if halved or rel < best[0]:
            best = (rel, _floor(absA, U, norm_f), U.copy())
        since_improved = 0 if halved else since_improved + 1
        if rel <= RESIDUAL_RTOL or (not halved and best[0] <= best[1]):
            break
        if since_improved >= 30 or rel > 1e3 * best[0]:
            break
        U = U + factor.solve(r.astype(float))
        steps += 1
    return best + (steps,)
