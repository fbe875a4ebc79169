"""The four benchmark shells: exact geometry, loads, constraints, and sweeps.

Each case carries the coarsest exact quadratic NURBS geometry; meshes at any
uniform resolution are produced by knot insertion, so every refinement level
keeps the midsurface exact.

Conventions fixed here (validated against converged solutions):

* strip -- quarter-circle cantilever in the x-y plane, clamped at (0, R),
  free end at (R, 0) with an inward radial line load; the width direction
  is oriented so the unit normal points away from the cylinder axis.  With
  the angle phi measured from the clamped end, the converged fields are
  n11 = 2 qx cos(phi), m11 = -qx R cos(phi), neff11 = qx cos(phi).
* hemisphere -- quarter model; each of the two corner loads is half of the
  full-model pinching force 31250 t^3.
* scordelis -- whole roof on rigid diaphragms (u_x = u_z = 0 on the end
  rows); the free axial translation is gauged by pinning one u_y
  coefficient, which leaves the solution's vertical deflections unchanged.
* hypar -- half model clamped at x = -L/2 with a symmetry condition at y=0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .elements import (LinearConstraint, Patch, apply_constraints,
                       assemble, edge_cp_lines, fix_cps, gauss_rule, load_area,
                       load_edge_line, load_point)
from .fields import SolutionField, displacement_at, energies, l2_resultant_error
from .nurbs import (KnotVector, NurbsSurface, find_spans, make_uniform,
                    rational_eval, surface_eval)
from .shell import ShellMaterial, frame_arrays
from .solver import relative_residual, solve_spd

SQ2_2 = np.sqrt(2.0) / 2.0


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """A parameterized benchmark problem definition."""

    id: str
    surface: NurbsSurface
    material: ShellMaterial
    loads: tuple                      # ("area", f) | ("edge", edge, q) | ("point", theta, P)
    constraints: object               # callable(Patch) -> (fixed dofs, rows)
    monitor_theta: tuple[float, float]
    monitor_dir: object               # callable(position) -> unit 3-vector
    slenderness: float
    reference: float | None           # published deflection at the monitor
    initial_mesh: tuple[int, int]
    refine_v: bool                    # refine the second direction with the first
    analytic: dict | None = None      # component -> callable(positions)
    implicit_residual: object = None  # callable(positions) -> normalized residual

    def mesh_at_level(self, level: int) -> tuple[int, int]:
        nu0, nv0 = self.initial_mesh
        return nu0 * 2 ** level, nv0 * (2 ** level if self.refine_v else 1)


@dataclass(eq=False)
class CaseResult:
    """One solved mesh of one case."""

    case: BenchmarkCase
    solution: SolutionField
    mesh: tuple[int, int]
    n_dof: int
    deflection: float
    residual: float

    @property
    def normalized(self) -> float | None:
        if self.case.reference is None:
            return None
        return self.deflection / self.case.reference


@dataclass(eq=False)
class ConvergenceReport:
    """Per-refinement-level results of one convergence sweep."""

    case_id: str
    element_kind: str
    quad_n: int
    slenderness: float
    rows: list = field(default_factory=list)

    COLUMNS = ("level", "n_el_u", "n_el_v", "n_dof", "deflection", "normalized",
               "e_n11", "e_m11", "Em", "Eb", "Et")


# ---------------------------------------------------------------------------
# Geometry constructors
# ---------------------------------------------------------------------------

_KV1 = KnotVector([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2)


def _arc_xy(radius: float, ang0: float, ang1: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-segment rational quadratic circular arc, sweep below 180 deg.

    Returns control points (3, 2) in the plane and weights (3,).
    """
    half = 0.5 * (ang1 - ang0)
    mid = 0.5 * (ang0 + ang1)
    p0 = radius * np.array([np.cos(ang0), np.sin(ang0)])
    p2 = radius * np.array([np.cos(ang1), np.sin(ang1)])
    p1 = radius / np.cos(half) * np.array([np.cos(mid), np.sin(mid)])
    return np.stack([p0, p1, p2]), np.array([1.0, np.cos(half), 1.0])


def strip_surface(R: float = 10.0, b: float = 1.0) -> NurbsSurface:
    """Quarter-circle cylindrical strip, clamp end at (0, R), free at (R, 0).

    u runs along the arc, v across the width; the width runs from z = b to
    z = 0 so that the normal a3 points away from the cylinder axis.
    """
    pts, wu = _arc_xy(R, np.pi / 2.0, 0.0)
    ctrl = np.zeros((3, 3, 3))
    for i in range(3):
        for j, z in enumerate((b, b / 2.0, 0.0)):
            ctrl[i, j] = [pts[i, 0], pts[i, 1], z]
    return NurbsSurface(_KV1, _KV1, ctrl, np.outer(wu, np.ones(3)))


def hemisphere_surface(R: float = 10.0, hole_deg: float = 18.0) -> NurbsSurface:
    """Quarter of a hemisphere with a polar hole, exact surface of revolution.

    v follows the meridian from the equator up to latitude 90 - hole_deg;
    u sweeps 90 degrees of longitude from the x-z plane to the y-z plane.
    """
    lat = np.radians(90.0 - hole_deg)
    gen, wv = _arc_xy(R, 0.0, lat)          # (x, z) meridian in the x-z plane
    ctrl = np.zeros((3, 3, 3))
    wts = np.zeros((3, 3))
    for j in range(3):
        x_j, z_j = gen[j]
        ring = [(x_j, 0.0), (x_j, x_j), (0.0, x_j)]
        for i, (cx, cy) in enumerate(ring):
            ctrl[i, j] = [cx, cy, z_j]
            wts[i, j] = (1.0, SQ2_2, 1.0)[i] * wv[j]
    return NurbsSurface(_KV1, _KV1, ctrl, wts)


def scordelis_surface(R: float = 25.0, L: float = 50.0,
                      half_angle_deg: float = 40.0) -> NurbsSurface:
    """Cylindrical roof panel: 2*half_angle arc (u) extruded along y (v)."""
    a = np.radians(half_angle_deg)
    pts, wu = _arc_xy(R, np.pi / 2.0 + a, np.pi / 2.0 - a)  # (x, z), crown at top
    ctrl = np.zeros((3, 3, 3))
    for i in range(3):
        for j, y in enumerate((0.0, L / 2.0, L)):
            ctrl[i, j] = [pts[i, 0], y, pts[i, 1]]
    return NurbsSurface(_KV1, _KV1, ctrl, np.outer(wu, np.ones(3)))


def hypar_surface(L: float = 1.0) -> NurbsSurface:
    """Half hyperbolic paraboloid z = x^2 - y^2 over [-L/2, L/2] x [0, L/2].

    The height is biquadratic, so an integer-weight biquadratic patch is
    exact: quadratic polynomials have B-form coefficients (f(a),
    f(a) + h f'(a)/2, f(b)) on a single span.
    """
    xs = np.array([-L / 2.0, 0.0, L / 2.0])
    ys = np.array([0.0, L / 4.0, L / 2.0])
    zx = np.array([L * L / 4.0, -L * L / 4.0, L * L / 4.0])
    zy = np.array([0.0, 0.0, L * L / 4.0])
    ctrl = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            ctrl[i, j] = [xs[i], ys[j], zx[i] - zy[j]]
    return NurbsSurface(_KV1, _KV1, ctrl, np.ones((3, 3)))


# ---------------------------------------------------------------------------
# Case factories
# ---------------------------------------------------------------------------

STRIP_REFERENCES = {1e1: -9.4561e-1, 1e2: -9.4250e-1, 1e3: -9.4247e-1}
HEMISPHERE_REFERENCES = {2.5e2: -9.3521e-2, 2.5e3: -9.1594e-2, 2.5e4: -9.0817e-2}
SCORDELIS_REFERENCES = {1e2: -3.0059e-1, 1e3: -3.2010e1}
HYPAR_REFERENCES = {1e2: -9.3128e-5, 1e3: -6.3957e-3, 1e4: -5.3059e-1}


def _lookup_reference(table, slenderness):
    for key, val in table.items():
        if abs(slenderness - key) <= 1e-6 * key:
            return val
    return None


def _rotation_rows(patch: Patch, edge: str):
    """Zero-rotation-about-the-edge rows: a3 . (U_row1 - U_row0) = 0,
    collocated at the Greville stations of the edge."""
    s = patch.surface
    g0, g1 = edge_cp_lines(patch, edge, 2).reshape(2, -1)
    along_u = edge in ("v0", "v1")
    kv = s.kv_u if along_u else s.kv_v
    j = np.arange(kv.n_basis)[:, None] + 1 + np.arange(kv.degree)
    g = np.mean(kv.knots[j], axis=1)
    at = np.full_like(g, {"u0": s.kv_u.start, "u1": s.kv_u.end,
                          "v0": s.kv_v.start, "v1": s.kv_v.end}[edge])
    t1, t2 = (g, at) if along_u else (at, g)
    R = rational_eval(s, find_spans(s.kv_u, t1), find_spans(s.kv_v, t2), t1, t2)
    a3 = frame_arrays(*R[1:, :, -4:-1])["a3"]
    dofs = 3 * np.stack([g1, g1, g1, g0, g0, g0], axis=1) + [0, 1, 2, 0, 1, 2]
    coeffs = np.concatenate([a3, -a3], axis=1)
    return tuple(LinearConstraint(d, c) for d, c in zip(dofs, coeffs))


def clamp_constraints(patch: Patch, edge: str):
    """Clamped edge: displacements zero on the edge row, zero edge rotation.

    The rotation is removed by tying the surface-normal displacement of the
    adjacent control point row to the edge row.  Fixing that row entirely
    would also force the membrane strains to vanish at the clamp, which the
    exact solution does not satisfy; that over-constraint shows up as an
    O(1) boundary layer in the membrane forces and caps their L2
    convergence rate at 1/2.
    """
    fixed = fix_cps(patch, edge_cp_lines(patch, edge, 1))
    return fixed, _rotation_rows(patch, edge)


def symmetry_constraints(patch: Patch, edge: str, component: int):
    """Mirror-symmetry conditions at a patch edge lying in a symmetry plane.

    The displacement component normal to the plane is fixed on the edge
    control point row, and the rotation about the edge is removed by tying
    the surface-normal displacement of the adjacent row to the edge row:
    a3 . (U_row1 - U_row0) = 0 collocated at the Greville stations.  Fixing
    the plane-normal component of the second row instead does not constrain
    this rotation on curved edges (the rotation moves second-row points
    along a3, which has no component normal to the plane).
    """
    fixed = fix_cps(patch, edge_cp_lines(patch, edge, 1), components=(component,))
    return fixed, _rotation_rows(patch, edge)


def _radial_xy(pos):
    d = np.array([pos[0], pos[1], 0.0])
    return d / np.linalg.norm(d)


def _radial_sphere(pos):
    return np.asarray(pos) / np.linalg.norm(pos)


def _vertical(pos):
    return np.array([0.0, 0.0, 1.0])


def make_strip(thickness: float = 0.1) -> BenchmarkCase:
    """Cylindrical shell strip: clamped quarter circle with a radial tip load."""
    R, b, E, nu = 10.0, 1.0, 1.0e3, 0.0
    qx = -0.1 * thickness ** 3
    surface = strip_surface(R, b)

    def constraints(patch):
        return clamp_constraints(patch, "u0")

    def phi(pos):
        return np.arctan2(pos[..., 0], pos[..., 1])  # 0 at clamp, pi/2 at tip

    analytic = {
        "n11": lambda pos: 2.0 * qx * np.cos(phi(pos)),
        "m11": lambda pos: -qx * R * np.cos(phi(pos)),
        "neff11": lambda pos: qx * np.cos(phi(pos)),
    }
    return BenchmarkCase(
        id="strip", surface=surface, material=ShellMaterial(E, nu, thickness),
        loads=(("edge", "u1", np.array([qx, 0.0, 0.0])),),
        constraints=constraints, monitor_theta=(1.0, 0.5),
        monitor_dir=_radial_xy, slenderness=R / thickness,
        reference=_lookup_reference(STRIP_REFERENCES, R / thickness),
        initial_mesh=(2, 1), refine_v=False, analytic=analytic,
        implicit_residual=lambda pos: (pos[..., 0] ** 2 + pos[..., 1] ** 2
                                       - R * R) / (R * R))


def make_hemisphere(thickness: float = 4.0e-2) -> BenchmarkCase:
    """Pinched hemisphere with an 18 degree hole, quarter model.

    The full model carries four alternating radial point loads of magnitude
    P = 31250 t^3 at the equator; the quarter model loads its two corner
    points with P/2 (each load point is shared by two symmetric quarters).
    """
    R, E, nu = 10.0, 6.825e7, 0.3
    P_half = 0.5 * 31250.0 * thickness ** 3
    surface = hemisphere_surface(R)

    def constraints(patch):
        sym_y, rot_y = symmetry_constraints(patch, "u0", 1)
        sym_x, rot_x = symmetry_constraints(patch, "u1", 0)
        pin_z = fix_cps(patch, [patch.cp_index(0, 0)], components=(2,))
        return np.concatenate([sym_y, sym_x, pin_z]), rot_y + rot_x

    return BenchmarkCase(
        id="hemisphere", surface=surface, material=ShellMaterial(E, nu, thickness),
        loads=(("point", (0.0, 0.0), np.array([-P_half, 0.0, 0.0])),
               ("point", (1.0, 0.0), np.array([0.0, P_half, 0.0]))),
        constraints=constraints, monitor_theta=(0.0, 0.0),
        monitor_dir=_radial_sphere, slenderness=R / thickness,
        reference=_lookup_reference(HEMISPHERE_REFERENCES, R / thickness),
        initial_mesh=(2, 2), refine_v=True,
        implicit_residual=lambda pos: (np.sum(pos ** 2, axis=-1) - R * R) / (R * R))


def make_scordelis(thickness: float = 0.25) -> BenchmarkCase:
    """Scordelis-Lo roof, whole geometry, rigid diaphragms at both ends."""
    R, L, E, nu, qz = 25.0, 50.0, 4.32e8, 0.0, 90.0
    surface = scordelis_surface(R, L)

    def constraints(patch):
        dia0 = fix_cps(patch, edge_cp_lines(patch, "v0", 1), components=(0, 2))
        dia1 = fix_cps(patch, edge_cp_lines(patch, "v1", 1), components=(0, 2))
        # gauge the free axial translation; does not affect u_x, u_z
        n_v = patch.surface.kv_v.n_basis
        pin_y = fix_cps(patch, [patch.cp_index(0, n_v // 2)], components=(1,))
        return np.concatenate([dia0, dia1, pin_y]), ()

    return BenchmarkCase(
        id="scordelis", surface=surface, material=ShellMaterial(E, nu, thickness),
        loads=(("area", np.array([0.0, 0.0, -qz])),),
        constraints=constraints, monitor_theta=(1.0, 0.5),
        monitor_dir=_vertical, slenderness=R / thickness,
        reference=_lookup_reference(SCORDELIS_REFERENCES, R / thickness),
        initial_mesh=(4, 4), refine_v=True,
        implicit_residual=lambda pos: (pos[..., 0] ** 2 + pos[..., 2] ** 2
                                       - R * R) / (R * R))


def make_hypar(thickness: float = 1.0e-3) -> BenchmarkCase:
    """Partly clamped hyperbolic paraboloid, half model with symmetry at y=0."""
    L, E, nu = 1.0, 2.0e11, 0.3
    qz = 8000.0 * thickness
    surface = hypar_surface(L)

    def constraints(patch):
        clamp, rot_c = clamp_constraints(patch, "u0")
        sym, rot_s = symmetry_constraints(patch, "v0", 1)
        return np.concatenate([clamp, sym]), rot_c + rot_s

    return BenchmarkCase(
        id="hypar", surface=surface, material=ShellMaterial(E, nu, thickness),
        loads=(("area", np.array([0.0, 0.0, -qz])),),
        constraints=constraints, monitor_theta=(1.0, 0.0),
        monitor_dir=_vertical, slenderness=L / thickness,
        reference=_lookup_reference(HYPAR_REFERENCES, L / thickness),
        initial_mesh=(2, 1), refine_v=True,
        implicit_residual=lambda pos: pos[..., 2] - (pos[..., 0] ** 2
                                                     - pos[..., 1] ** 2))


_FACTORIES = {"strip": make_strip, "hemisphere": make_hemisphere,
              "scordelis": make_scordelis, "hypar": make_hypar}

_LENGTH_SCALE = {"strip": 10.0, "hemisphere": 10.0, "scordelis": 25.0, "hypar": 1.0}


def make_case(case_id: str, thickness: float | None = None,
              slenderness: float | None = None) -> BenchmarkCase:
    """Build a benchmark case by id, selecting thickness or slenderness."""
    if case_id not in _FACTORIES:
        raise ValueError(f"unknown benchmark {case_id!r}")
    if (thickness is None) == (slenderness is None):
        if thickness is None:
            return _FACTORIES[case_id]()
        raise ValueError("give either thickness or slenderness, not both")
    if slenderness is not None:
        thickness = _LENGTH_SCALE[case_id] / slenderness
    return _FACTORIES[case_id](thickness)


# ---------------------------------------------------------------------------
# Solving and convergence sweeps
# ---------------------------------------------------------------------------

def build_loads(case: BenchmarkCase, patch: Patch, quad_n: int) -> np.ndarray:
    F = np.zeros(patch.n_dof)
    rule = gauss_rule(quad_n)
    for spec in case.loads:
        if spec[0] == "area":
            F += load_area(patch, rule, spec[1])
        elif spec[0] == "edge":
            F += load_edge_line(patch, spec[1], quad_n, spec[2])
        elif spec[0] == "point":
            F += load_point(patch, spec[1], spec[2])
        else:
            raise ValueError(f"unknown load kind {spec[0]!r}")
    return F


def solve_case(case: BenchmarkCase, mesh: tuple[int, int], kind: str,
               quad_n: int = 3) -> CaseResult:
    """Mesh, assemble, constrain and solve one benchmark configuration."""
    surface = make_uniform(case.surface, *mesh)
    patch = Patch(surface)
    rule = gauss_rule(quad_n)
    K = assemble(patch, case.material, rule, kind)
    F = build_loads(case, patch, quad_n)
    reduced = apply_constraints(K, F, *case.constraints(patch))
    U_free = solve_spd(reduced.K, reduced.F)
    residual = relative_residual(reduced.K, U_free, reduced.F)
    U = reduced.expand(np.asarray(U_free, dtype=float)).reshape(-1, 3)
    sol = SolutionField(patch, U, kind, case.material)

    t1, t2 = case.monitor_theta
    u_mon = displacement_at(sol, t1, t2)
    pos, = surface_eval(surface, t1, t2, order=0)
    deflection = float(u_mon @ case.monitor_dir(pos))
    return CaseResult(case=case, solution=sol, mesh=mesh,
                      n_dof=len(reduced.free), deflection=deflection,
                      residual=residual)


def run_convergence(case: BenchmarkCase, kind: str, quad_n: int,
                    levels: int) -> tuple[ConvergenceReport, CaseResult]:
    """Solve a sequence of uniformly refined meshes; return the report and
    the result on the finest mesh.

    Rows carry energies, and L2 resultant errors where the case has
    analytic fields.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    report = ConvergenceReport(case_id=case.id, element_kind=kind,
                               quad_n=quad_n, slenderness=case.slenderness)
    for level in range(levels):
        row, last = solve_row(case, level, case.mesh_at_level(level), kind, quad_n,
                              with_errors=True, with_energies=True)
        report.rows.append(row)
    return report, last


def solve_row(case: BenchmarkCase, level: int, mesh: tuple[int, int], kind: str,
              quad_n: int, with_errors: bool = False,
              with_energies: bool = False) -> tuple[dict, CaseResult]:
    """Solve one mesh; return its report row and result.

    The row also carries the wall time and the solver's relative residual,
    which ``write_report_csv`` leaves out.
    """
    t0 = time.perf_counter()
    res = solve_case(case, mesh, kind, quad_n)
    row = {
        "level": level, "n_el_u": mesh[0], "n_el_v": mesh[1],
        "n_dof": res.n_dof, "deflection": res.deflection,
        "normalized": res.normalized,
        "e_n11": None, "e_m11": None, "Em": None, "Eb": None, "Et": None,
        "residual": res.residual,
    }
    if with_errors and case.analytic is not None:
        row["e_n11"], row["e_m11"] = l2_resultant_error(
            res.solution, (case.analytic["n11"], case.analytic["m11"]), ("n11", "m11"))
    if with_energies:
        rep = energies(res.solution, gauss_rule(quad_n))
        row["Em"], row["Eb"], row["Et"] = rep.Em, rep.Eb, rep.Et
    row["wall_s"] = time.perf_counter() - t0
    return row, res


def write_report_csv(report: ConvergenceReport, stream) -> None:
    """Write a convergence report as CSV, full double precision.

    Wall times are intentionally not written so identical configurations
    produce bitwise-identical files.
    """
    own = isinstance(stream, str)
    f = open(stream, "w", encoding="ascii", newline="\n") if own else stream

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    try:
        f.write(",".join(ConvergenceReport.COLUMNS) + "\n")
        for row in report.rows:
            f.write(",".join(fmt(row[c]) for c in ConvergenceReport.COLUMNS) + "\n")
    finally:
        if own:
            f.close()
