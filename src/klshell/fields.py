"""Displacements, stress resultants, strain energies and L2 resultant errors.

For ``cas`` solutions the membrane strains entering the resultants and the
membrane energy are the corner-interpolated assumed strains, consistent with
the element's internal virtual work; bending always uses the compatible
curvature changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import (Patch, QuadratureRule, _batch_eval, _chunks, _dofs,
                       _membrane_strain_rows, _rule_eval, _to_parent, tensor_rule)
from .shell import (_VOIGT, CARTESIAN, ResultantTriple, ShellMaterial,
                    bending_rows, cartesian_components, constitutive_voigt,
                    effective_membrane_forces, frame_arrays, resultant_law)


@dataclass(eq=False)
class SolutionField:
    """Control-point displacement coefficients for one solved case."""

    patch: Patch
    U: np.ndarray            # (n_cp, 3)
    kind: str                # "cs" | "cas"
    mat: ShellMaterial

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)  # extended bits are irrelevant here
        if U.shape != (self.patch.n_cp, 3):
            raise ValueError(f"coefficient shape {U.shape} != {(self.patch.n_cp, 3)}")
        self.U = U

    def local_dofs(self, eids) -> np.ndarray:
        return self.U.reshape(-1)[_dofs(self.patch.conn[eids])]


@dataclass(frozen=True)
class EnergyReport:
    """Membrane, bending and total strain energies with their ratios."""

    Em: float
    Eb: float
    Et: float

    @property
    def membrane_fraction(self) -> float:
        return self.Em / self.Et

    @property
    def bending_fraction(self) -> float:
        return self.Eb / self.Et


def _displacements(sol, ev):
    """u = sum_A N_A U_A at the points of ev, (ne, nq, 3)."""
    return np.einsum("eqA,eAc->eqc", ev["N"], sol.U[ev["conn"]])


def displacement_at(sol: SolutionField, t1: float, t2: float) -> np.ndarray:
    """u(theta) = sum_A N_A(theta) U_A."""
    theta = np.array([[t1, t2]], dtype=float)
    ev = _batch_eval(sol.patch, sol.patch.locate(theta), theta[:, None, :], order=0)
    return _displacements(sol, ev)[0, 0]


def _strain_fields(sol, eids, ev, xi):
    """Strains and frames at the points of ev, parent coordinates xi.

    Membrane strains follow the element kind; curvatures are compatible.
    Returns (fr, eps, kappa) with eps/kappa of shape (ne, nq, 3) in
    component order (11, 22, 12), plain 12 storage.
    """
    fr = frame_arrays(ev["r1"], ev["r2"], ev["r11"], ev["r22"], ev["r12"])
    Uloc = sol.local_dofs(eids)
    kappa = np.einsum("eqaj,ej->eqa", bending_rows(ev, fr), Uloc)
    mrows = _membrane_strain_rows(sol.patch, eids, ev, xi, sol.kind)
    return fr, np.einsum("eqaj,ej->eqa", mrows, Uloc), kappa


def _resultant_fields(sol, eids, ev, xi):
    """Local-Cartesian resultant components at the points of ev.

    Returns a dict mapping 'n', 'm', 'neff' to arrays of shape (ne, nq, 3)
    holding the (11, 22, 12) physical components.
    """
    mat = sol.mat
    fr, eps, kappa = _strain_fields(sol, eids, ev, xi)
    n = resultant_law(eps, fr["a_inv"], mat.membrane_stiffness, mat.nu)
    m = resultant_law(kappa, fr["a_inv"], mat.bending_stiffness, mat.nu)
    neff = effective_membrane_forces(n, m, fr["b_mixed"])
    return {key: cartesian_components(c, fr["e1"], fr["e2"], fr["a1"], fr["a2"])
            for key, c in (("n", n), ("m", m), ("neff", neff))}


def _point_fields(sol, theta, eids):
    """Geometry, displacements and resultants at points theta (n, 2) of elements eids.

    Returns (ev, u, res) with leading shape (n, 1).
    """
    ev = _batch_eval(sol.patch, eids, theta[:, None, :], order=2)
    xi = _to_parent(sol.patch, eids, theta)[:, None, :]
    return ev, _displacements(sol, ev), _resultant_fields(sol, eids, ev, xi)


def resultants_at(sol: SolutionField, t1: float, t2: float, eid: int | None = None):
    """Membrane forces, bending moments and effective membrane forces at a point.

    Returns (n_hat, m_hat, neff_hat) as local-Cartesian ResultantTriples.
    ``eid`` overrides the containing element (useful on shared edges).
    """
    theta = np.array([[t1, t2]], dtype=float)
    eids = sol.patch.locate(theta) if eid is None else np.array([eid])
    _, _, res = _point_fields(sol, theta, eids)
    return tuple(ResultantTriple(*res[key][0, 0], basis=CARTESIAN)
                 for key in ("n", "m", "neff"))


def energies(sol: SolutionField, rule: QuadratureRule) -> EnergyReport:
    """Membrane/bending/total strain energies by element quadrature.

    Using the same rule as assembly reproduces the discrete identity
    E_t = 0.5 * U K U for the matching element kind.
    """
    Em = 0.0
    Eb = 0.0
    for eids in _chunks(sol.patch.n_elements):
        ev = _rule_eval(sol.patch, eids, rule)
        fr, eps, kappa = _strain_fields(sol, eids, ev, rule.points)
        Dm = constitutive_voigt(fr["a_inv"], sol.mat.membrane_stiffness, sol.mat.nu)
        Db = constitutive_voigt(fr["a_inv"], sol.mat.bending_stiffness, sol.mat.nu)
        sm = eps * _VOIGT
        sb = kappa * _VOIGT
        Em += 0.5 * np.einsum("eqa,eqab,eqb,eq->", sm, Dm, sm, ev["dA"])
        Eb += 0.5 * np.einsum("eqa,eqab,eqb,eq->", sb, Db, sb, ev["dA"])
    return EnergyReport(Em=float(Em), Eb=float(Eb), Et=float(Em + Eb))


def l2_resultant_error(sol: SolutionField, analytic, which, n_fine: int = 5):
    """Relative L2 error of resultant components against analytic fields.

    ``which`` is 'n11', 'm11' or 'neff11' and ``analytic`` maps midsurface
    positions (..., 3) to the exact value of that component; the result is a
    float.  Given a tuple of components and a tuple of fields, the errors
    come back as a tuple from one evaluation of the resultants.  The
    integrals use an n_fine x n_fine Gauss rule per element (default 5x5).
    """
    key = {"n11": ("n", 0), "m11": ("m", 0), "neff11": ("neff", 0)}
    single = isinstance(which, str)
    names = (which,) if single else tuple(which)
    fields = (analytic,) if single else tuple(analytic)
    for w in names:
        if w not in key:
            raise ValueError(f"unknown resultant component {w!r}")
    rule = tensor_rule(n_fine)
    num = np.zeros(len(names))
    den = np.zeros(len(names))
    for eids in _chunks(sol.patch.n_elements):
        ev = _rule_eval(sol.patch, eids, rule)
        res = _resultant_fields(sol, eids, ev, rule.points)
        for i, (w, exact_at) in enumerate(zip(names, fields, strict=True)):
            name, comp = key[w]
            exact = exact_at(ev["r"])
            diff = res[name][..., comp] - exact
            num[i] += np.sum(diff ** 2 * ev["dA"])
            den[i] += np.sum(exact ** 2 * ev["dA"])
    if np.any(den <= 0.0):
        raise ValueError("analytic field has zero L2 norm: error undefined")
    errors = tuple(float(np.sqrt(a) / np.sqrt(b)) for a, b in zip(num, den))
    return errors[0] if single else errors


def write_field(sol: SolutionField, stream, header: dict, density: int = 20) -> None:
    """Sample the solution on a uniform parametric grid in a plain-text table.

    Header lines are '# key: value'; data rows are
    "t1 t2 x y z ux uy uz n11 n22 n12 m11 m22 m12 neff11", t1-major.  Each
    sample is evaluated in the element that contains it (``Patch.locate``).
    """
    own = isinstance(stream, str)
    f = open(stream, "w", encoding="ascii") if own else stream
    try:
        for k, v in header.items():
            f.write(f"# {k}: {v}\n")
        f.write("# columns: t1 t2 x y z ux uy uz n11 n22 n12 m11 m22 m12 neff11\n")
        s = sol.patch.surface
        tu = np.linspace(s.kv_u.start, s.kv_u.end, density)
        tv = np.linspace(s.kv_v.start, s.kv_v.end, density)
        theta = np.stack(np.meshgrid(tu, tv, indexing="ij"), axis=-1).reshape(-1, 2)
        for idx in _chunks(len(theta)):
            ev, u, res = _point_fields(sol, theta[idx], sol.patch.locate(theta[idx]))
            table = np.concatenate([theta[idx], ev["r"][:, 0], u[:, 0], res["n"][:, 0],
                                    res["m"][:, 0], res["neff"][:, 0, :1]], axis=1)
            for row in table:
                f.write(" ".join(format(v, ".17g") for v in row) + "\n")
    finally:
        if own:
            f.close()
