"""Pointwise Kirchhoff-Love shell kinematics and linear-elastic resultant laws.

Surface frames in curvilinear coordinates, membrane strain and bending
pseudo-strain operators as per-dof row arrays, membrane force / bending
moment laws, effective membrane forces, and the transformation of resultants
to a local Cartesian basis.

All formulas are written over arrays with arbitrary leading (batch)
dimensions; a single point is a batch with no leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularGeometryError


@dataclass(frozen=True)
class ShellMaterial:
    """Isotropic linear-elastic shell material: modulus, Poisson ratio, thickness.

    Both stiffnesses must be positive normal floats; t^3 leaves that range
    long before t does.
    """

    E: float
    nu: float
    t: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.E, self.nu, self.t))):
            raise ValueError("E, nu and t must be finite")
        if self.E <= 0.0:
            raise ValueError("Young's modulus must be positive")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")
        if self.t <= 0.0:
            raise ValueError("thickness must be positive")
        with np.errstate(over="ignore", under="ignore"):
            try:
                stiffness = (self.membrane_stiffness, self.bending_stiffness)
            except OverflowError:  # t ** 3 of a Python float
                stiffness = (np.inf,)
        if not all(np.finfo(float).tiny <= k < np.inf for k in stiffness):
            raise ValueError(f"thickness {self.t:g} puts the membrane or bending "
                             "stiffness outside the normal float range")

    @property
    def membrane_stiffness(self) -> float:
        return self.E * self.t / (1.0 - self.nu ** 2)

    @property
    def bending_stiffness(self) -> float:
        return self.E * self.t ** 3 / (12.0 * (1.0 - self.nu ** 2))


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def _sym(v):
    """Symmetric 2x2 matrices (..., 2, 2) from components (11, 22, 12)."""
    return v[..., [[0, 2], [2, 1]]]


def _vec(S):
    """Components (11, 22, 12) of 2x2 matrices, the 12 one symmetrized."""
    return np.stack([S[..., 0, 0], S[..., 1, 1], 0.5 * (S[..., 0, 1] + S[..., 1, 0])],
                    axis=-1)


def frame_arrays(r1, r2, r11, r22, r12):
    """Frame quantities from parametric derivatives; broadcasts over leading dims.

    Returns a dict with the covariant tangents a1, a2, the unit normal a3,
    the metric a_ab and its inverse a_inv, the curvature b_ab and its mixed
    form b_mixed = a_inv @ b_ab, the orthonormal local basis e1, e2 with e1
    parallel to a1, the area density jac = ||a1 x a2|| and the second
    derivatives d2, stacked as (..., 3, 3) in component order 11, 22, 12.
    """
    cross = np.cross(r1, r2)
    jac = np.linalg.norm(cross, axis=-1)
    if np.any(jac <= 0.0) or not np.all(np.isfinite(jac)):
        raise SingularGeometryError("degenerate tangents: ||a1 x a2|| = 0")
    a3 = cross / jac[..., None]

    g = np.stack([_dot(r1, r1), _dot(r2, r2), _dot(r1, r2)], axis=-1)
    det = g[..., 0] * g[..., 1] - g[..., 2] ** 2
    a_inv = _sym(g[..., [1, 0, 2]] * [1.0, 1.0, -1.0] / det[..., None])
    d2 = np.stack([r11, r22, r12], axis=-2)
    b_ab = _sym(_dot(d2, a3[..., None, :]))

    e1 = r1 / np.linalg.norm(r1, axis=-1, keepdims=True)
    t = r2 - _dot(r2, e1)[..., None] * e1
    e2 = t / np.linalg.norm(t, axis=-1, keepdims=True)

    return dict(a1=r1, a2=r2, a3=a3, a_ab=_sym(g), a_inv=a_inv, b_ab=b_ab,
                b_mixed=a_inv @ b_ab, e1=e1, e2=e2, jac=jac, d2=d2)


# ---------------------------------------------------------------------------
# Strain operators (per-dof rows)
# ---------------------------------------------------------------------------
# Rows are indexed by the local dof (A, i) with A the basis function and i the
# global Cartesian direction, flattened as 3*A + i.  Strain rows are in Voigt
# form: component order (11, 22, 12) with the shear row giving 2*eps_12
# (2*kappa_12 for bending), the vector ``constitutive_voigt`` acts on.

def membrane_rows(N1, N2, a1, a2):
    """Membrane strain rows, batched.

    N1, N2: (..., nfun) rational basis partials; a1, a2: (..., 3) tangents.
    Returns (..., 3, 3*nfun) with (eps_11, eps_22, 2*eps_12) = rows @ dofs.
    """
    e11 = np.einsum("...A,...i->...Ai", N1, a1)
    e22 = np.einsum("...A,...i->...Ai", N2, a2)
    e12 = (np.einsum("...A,...i->...Ai", N1, a2)
           + np.einsum("...A,...i->...Ai", N2, a1))
    rows = np.stack([e11, e22, e12], axis=-3)
    return rows.reshape(rows.shape[:-2] + (rows.shape[-2] * 3,))


def bending_rows(basis_arrays, frame_arrays_):
    """Bending pseudo-strain rows, batched.

    Implements the linearized change of curvature in Christoffel form,

        kappa_ab = -a3 . (u_,ab - Gamma^g_ab u_,g),   Gamma^g_ab = r_,ab . a^g,

    with a^g = a_inv[g, d] a_d the contravariant tangents.

    basis_arrays: dict with N1, N2, N11, N22, N12 of shape (..., nfun).
    Returns (..., 3, 3*nfun) rows of (kappa_11, kappa_22, 2*kappa_12).
    """
    f, N = frame_arrays_, basis_arrays
    a_con = f["a_inv"] @ np.stack([f["a1"], f["a2"]], axis=-2)   # rows a^1, a^2
    G = f["d2"] @ np.swapaxes(a_con, -1, -2)                     # (..., 3, 2)
    second = np.stack([N["N11"], N["N22"], N["N12"]], axis=-2)
    coef = (G[..., 0:1] * N["N1"][..., None, :] + G[..., 1:2] * N["N2"][..., None, :]
            - second)
    coef[..., 2, :] *= 2.0  # Voigt shear row
    rows = coef[..., None] * f["a3"][..., None, None, :]
    return rows.reshape(rows.shape[:-2] + (rows.shape[-2] * 3,))


# ---------------------------------------------------------------------------
# Constitutive laws and resultant transforms
# ---------------------------------------------------------------------------
# Batched over leading dimensions; strain vectors are in Voigt form (11, 22,
# 2*12), resultant vectors hold the plain contravariant components (11, 22, 12).

def constitutive_voigt(a_inv, scale, nu):
    """Voigt 3x3 law matrix D with strain vector (e11, e22, 2*e12), batched.

    Built so that s_voigt . D s_voigt equals eps_ab n^ab for symmetric
    strains; shared by the membrane and bending contractions (only the
    thickness scale differs).
    """
    A11, A22, A12 = a_inv[..., 0, 0], a_inv[..., 1, 1], a_inv[..., 0, 1]
    D = np.empty(a_inv.shape[:-2] + (3, 3))
    D[..., 0, 0] = A11 ** 2
    D[..., 1, 1] = A22 ** 2
    D[..., 0, 1] = D[..., 1, 0] = nu * A11 * A22 + (1.0 - nu) * A12 ** 2
    D[..., 0, 2] = D[..., 2, 0] = A11 * A12
    D[..., 1, 2] = D[..., 2, 1] = A22 * A12
    D[..., 2, 2] = nu * A12 ** 2 + 0.5 * (1.0 - nu) * (A11 * A22 + A12 ** 2)
    return D * np.asarray(scale)[..., None, None]


def resultant_law(strain, a_inv, scale, nu):
    """Contravariant resultants c [(1-nu) A E A + nu A tr(A E)], A = a_inv,
    of Voigt strains (E_11, E_22, 2*E_12)."""
    return np.einsum("...ab,...b->...a", constitutive_voigt(a_inv, scale, nu), strain)


def effective_membrane_forces(n, m, b_mixed):
    """Effective membrane forces n_eff^ab = n^ab - m^al b^b_l, symmetrized.

    The moment-curvature coupling carries the shape-operator sign: with this
    pairing n_eff reproduces the force transmitted through a cross-section
    (e.g. the tangential tip-load component on a statically determinate
    arch), which the opposite sign does not for any surface orientation.
    """
    return n - _vec(_sym(m) @ np.swapaxes(b_mixed, -1, -2))


def cartesian_components(c, e1, e2, a1, a2):
    """Local Cartesian components hat{c}^ab = c^gm (e_a . a_g)(a_m . e_b).

    The output carries physical units (force/length for membrane forces,
    force for moments).
    """
    T = np.stack([e1, e2], axis=-2) @ np.swapaxes(np.stack([a1, a2], axis=-2), -1, -2)
    return _vec(T @ _sym(c) @ np.swapaxes(T, -1, -2))
