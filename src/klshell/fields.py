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
from .shell import (ShellMaterial, bending_rows, cartesian_components,
                    constitutive_voigt, effective_membrane_forces, frame_arrays,
                    resultant_law)


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


def displacement_at(sol: SolutionField, theta) -> tuple[np.ndarray, np.ndarray]:
    """Positions r and displacements u = sum_A N_A U_A at parametric points
    theta (n, 2), each (n, 3), evaluated in the elements that contain them."""
    theta = np.asarray(theta, dtype=float)
    ev = _batch_eval(sol.patch, sol.patch.locate(theta), theta[:, None, :], order=0)
    return ev["r"][:, 0], _displacements(sol, ev)[:, 0]


def _strain_fields(sol, eids, ev, xi):
    """Strains and frames at the points of ev, parent coordinates xi.

    Membrane strains follow the element kind; curvatures are compatible.
    Returns (fr, eps, kappa) with eps/kappa of shape (ne, nq, 3) in Voigt
    form (11, 22, 2*12).
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


def sample(sol: SolutionField, theta, eids=None) -> dict:
    """Geometry, displacements and resultants at parametric points theta (n, 2).

    Each point is evaluated in the element that contains it
    (``Patch.locate``) unless ``eids`` (n,) names the elements, which
    matters on shared edges.  Returns a dict of (n, 3) arrays: the position
    "r", the displacement "u", and the local-Cartesian (11, 22, 12)
    components of the membrane forces "n", bending moments "m" and
    effective membrane forces "neff".
    """
    theta = np.asarray(theta, dtype=float)
    eids = sol.patch.locate(theta) if eids is None else eids
    ev = _batch_eval(sol.patch, eids, theta[:, None, :], order=2)
    xi = _to_parent(sol.patch, eids, theta)[:, None, :]
    fields = {"r": ev["r"], "u": _displacements(sol, ev),
              **_resultant_fields(sol, eids, ev, xi)}
    return {key: v[:, 0] for key, v in fields.items()}


def energies(sol: SolutionField, rule: QuadratureRule) -> EnergyReport:
    """Membrane/bending/total strain energies by element quadrature.

    Using the same rule as assembly reproduces the discrete identity
    E_t = 0.5 * U K U for the matching element kind.
    """
    Em = Eb = 0.0
    for eids in _chunks(sol.patch.n_elements):
        ev = _rule_eval(sol.patch, eids, rule)
        fr, eps, kappa = _strain_fields(sol, eids, ev, rule.points)
        Dm = constitutive_voigt(fr["a_inv"], sol.mat.membrane_stiffness, sol.mat.nu)
        Db = constitutive_voigt(fr["a_inv"], sol.mat.bending_stiffness, sol.mat.nu)
        Em += 0.5 * np.einsum("eqa,eqab,eqb,eq->", eps, Dm, eps, ev["dA"])
        Eb += 0.5 * np.einsum("eqa,eqab,eqb,eq->", kappa, Db, kappa, ev["dA"])
    return EnergyReport(Em=float(Em), Eb=float(Eb), Et=float(Em + Eb))


def l2_resultant_error(sol: SolutionField, analytic, which) -> tuple[float, ...]:
    """Relative L2 errors of resultant components against analytic fields.

    ``which`` is a tuple of components, each 'n11', 'm11' or 'neff11', and
    ``analytic`` a tuple of as many fields, each mapping midsurface positions
    (..., 3) to the exact value of its component.  The errors come back as a
    tuple of floats from one evaluation of the resultants.  The integrals use
    a 5x5 Gauss rule per element.
    """
    key = {"n11": ("n", 0), "m11": ("m", 0), "neff11": ("neff", 0)}
    names, fields = tuple(which), tuple(analytic)
    for w in names:
        if w not in key:
            raise ValueError(f"unknown resultant component {w!r}")
    rule = tensor_rule(5)
    diffs, exacts, dAs = [[] for _ in names], [[] for _ in names], []
    for eids in _chunks(sol.patch.n_elements):
        ev = _rule_eval(sol.patch, eids, rule)
        res = _resultant_fields(sol, eids, ev, rule.points)
        dAs.append(ev["dA"])
        for i, (w, exact_at) in enumerate(zip(names, fields, strict=True)):
            name, comp = key[w]
            exacts[i].append(exact_at(ev["r"]))
            diffs[i].append(res[name][..., comp] - exacts[i][-1])
    # square the fields scaled by a power of two to max|exact| in [0.5, 1):
    # exact, and the sums cannot underflow however small the field
    errors = []
    for diff, exact in zip(diffs, exacts):
        e = int(np.frexp(max(np.max(np.abs(x)) for x in exact))[1])
        num = sum(np.sum(np.ldexp(d, -e) ** 2 * dA) for d, dA in zip(diff, dAs))
        den = sum(np.sum(np.ldexp(x, -e) ** 2 * dA) for x, dA in zip(exact, dAs))
        if den <= 0.0:
            raise ValueError("analytic field has zero L2 norm: error undefined")
        errors.append(float(np.sqrt(num) / np.sqrt(den)))
    return tuple(errors)


def write_field(sol: SolutionField, path, header: dict, density: int = 20) -> None:
    """Sample the solution on a uniform parametric grid in a plain-text table.

    Header lines are '# key: value'; data rows are
    "t1 t2 x y z ux uy uz n11 n22 n12 m11 m22 m12 neff11", t1-major, each
    one ``sample`` row.
    """
    s = sol.patch.surface
    tu = np.linspace(s.kv_u.start, s.kv_u.end, density)
    tv = np.linspace(s.kv_v.start, s.kv_v.end, density)
    theta = np.stack(np.meshgrid(tu, tv, indexing="ij"), axis=-1).reshape(-1, 2)
    row_format = " ".join(["%.17g"] * 15) + "\n"  # format(v, ".17g") per value
    with open(path, "w", encoding="ascii") as f:
        for k, v in header.items():
            f.write(f"# {k}: {v}\n")
        f.write("# columns: t1 t2 x y z ux uy uz n11 n22 n12 m11 m22 m12 neff11\n")
        for idx in _chunks(len(theta)):
            p = sample(sol, theta[idx])
            table = np.concatenate([theta[idx], p["r"], p["u"], p["n"], p["m"],
                                    p["neff"][:, :1]], axis=1)
            f.writelines(row_format % row for row in map(tuple, table.tolist()))
