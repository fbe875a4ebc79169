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

import math
import time
from dataclasses import dataclass

import numpy as np

from .elements import (apply_constraints, assemble, edge_lines, fix_cps, gauss_rule,
                       load_area, load_edge_line, load_point, rotation_rows)
from .fields import SolutionField, displacement_at, energies, l2_resultant_error
from .nurbs import KnotVector, NurbsSurface, make_uniform
from .shell import ShellMaterial
from .solver import SolveTrace, solve_spd

SQ2_2 = np.sqrt(2.0) / 2.0


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """A parameterized benchmark problem definition."""

    id: str
    surface: NurbsSurface
    material: ShellMaterial
    loads: object                     # callable(NurbsSurface, quad_n, area) -> load vector F
    supports: tuple                   # (edge, components, tie, at); see constraints
    monitor_theta: tuple[float, float]
    monitor_dir: object               # callable(position) -> unit 3-vector
    slenderness: float
    reference: float | None           # published deflection at the monitor
    initial_mesh: tuple[int, int]
    refine_v: bool                    # refine the second direction with the first
    analytic: dict | None = None      # component -> callable(positions)
    implicit_residual: object = None  # callable(positions) -> normalized residual

    def constraints(self, patch: NurbsSurface):
        """The supports on a patch as (fixed dofs, multipoint rows), in order.

        A support (edge, components, tie, at) fixes displacement components
        on the edge's control-point row (all three for a clamp, the one
        normal to the plane for a mirror-symmetry edge), or only on its point
        int(at * len(row)) for ``at`` a fraction.  ``tie`` removes the
        rotation about the edge by tying the surface-normal displacement of
        the adjacent row to the edge row (``rotation_rows``), not by fixing
        that row.  At a clamp, fixing it would also force the membrane
        strains to vanish there, which the exact solution does not satisfy:
        an O(1) boundary layer in the membrane forces that caps their L2
        rate at 1/2.  At a symmetry edge, fixing its plane-normal component
        does not stop the rotation on curved edges, which moves second-row
        points along a3, with no component normal to the plane.
        """
        fixed, rows = [], ()
        for edge, components, tie, at in self.supports:
            line = edge_lines(edge, patch.shape)
            if at is not None:
                line = line[[int(at * len(line))]]
            fixed.append(fix_cps(line, components))
            if tie:
                rows += rotation_rows(patch, edge)
        return np.concatenate(fixed), rows

    def mesh_at_level(self, level: int) -> tuple[int, int]:
        return self.mesh_per_side(self.initial_mesh[0] * 2 ** level)

    def mesh_per_side(self, n_u: int) -> tuple[int, int]:
        """Elements (u, v) for n_u along u; v follows u when ``refine_v``."""
        nu0, nv0 = self.initial_mesh
        return n_u, (max(1, (n_u * nv0) // nu0) if self.refine_v else nv0)


@dataclass(eq=False)
class CaseResult:
    """One solved mesh of one case, from the solver to its ``report.csv`` row.

    ``wall_s`` is the time of the solve.  The L2 resultant errors and the
    energies stay None until ``run_convergence`` post-processes the result.
    """

    case: BenchmarkCase
    solution: SolutionField
    mesh: tuple[int, int]
    n_dof: int
    deflection: float
    trace: SolveTrace
    wall_s: float
    e_n11: float | None = None
    e_m11: float | None = None
    Em: float | None = None
    Eb: float | None = None
    Et: float | None = None

    @property
    def normalized(self) -> float | None:
        if self.case.reference is None:
            return None
        return self.deflection / self.case.reference


REPORT_COLUMNS = ("level", "n_el_u", "n_el_v", "n_dof", "deflection", "normalized",
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
    x, y = np.meshgrid(xs, ys, indexing="ij")
    ctrl = np.stack([x, y, zx[:, None] - zy[None, :]], axis=-1)
    return NurbsSurface(_KV1, _KV1, ctrl, np.ones((3, 3)))


# Each benchmark's coarse geometry at its factory's dimensions, built once at
# import and shared by its cases: a surface is immutable.
_GEOMETRY = {"strip": strip_surface(), "hemisphere": hemisphere_surface(),
             "scordelis": scordelis_surface(), "hypar": hypar_surface()}


# ---------------------------------------------------------------------------
# Case factories
# ---------------------------------------------------------------------------

# The published deflection at the monitor: benchmark -> {slenderness: value}.
REFERENCES = {
    "strip": {1e1: -9.4561e-1, 1e2: -9.4250e-1, 1e3: -9.4247e-1},
    "hemisphere": {2.5e2: -9.3521e-2, 2.5e3: -9.1594e-2, 2.5e4: -9.0817e-2},
    "scordelis": {1e2: -3.0059e-1, 1e3: -3.2010e1},
    "hypar": {1e2: -9.3128e-5, 1e3: -6.3957e-3, 1e4: -5.3059e-1},
}


def _radial_xy(pos):
    d = np.array([pos[0], pos[1], 0.0])
    return d / np.linalg.norm(d)


def _radial_sphere(pos):
    return np.asarray(pos) / np.linalg.norm(pos)


def _vertical(pos):
    return np.array([0.0, 0.0, 1.0])


def make_strip(slenderness: float = 1e2) -> BenchmarkCase:
    """Cylindrical shell strip: clamped quarter circle with a radial tip load."""
    R, E, nu = 10.0, 1.0e3, 0.0
    mat = ShellMaterial(E, nu, R / slenderness)  # refuses t^3 out of range
    qx = -0.1 * mat.t ** 3

    def phi(pos):
        return np.arctan2(pos[..., 0], pos[..., 1])  # 0 at clamp, pi/2 at tip

    analytic = {
        "n11": lambda pos: 2.0 * qx * np.cos(phi(pos)),
        "m11": lambda pos: -qx * R * np.cos(phi(pos)),
        "neff11": lambda pos: qx * np.cos(phi(pos)),
    }
    return BenchmarkCase(
        id="strip", surface=_GEOMETRY["strip"], material=mat,
        loads=lambda patch, quad_n, area: load_edge_line(patch, "u1", quad_n,
                                                         np.array([qx, 0.0, 0.0])),
        supports=(("u0", (0, 1, 2), True, None),), monitor_theta=(1.0, 0.5),
        monitor_dir=_radial_xy, slenderness=slenderness,
        reference=REFERENCES["strip"].get(slenderness),
        initial_mesh=(2, 1), refine_v=False, analytic=analytic,
        implicit_residual=lambda pos: (pos[..., 0] ** 2 + pos[..., 1] ** 2
                                       - R * R) / (R * R))


def make_hemisphere(slenderness: float = 2.5e2) -> BenchmarkCase:
    """Pinched hemisphere with an 18 degree hole, quarter model.

    The full model carries four alternating radial point loads of magnitude
    P = 31250 t^3 at the equator; the quarter model loads its two corner
    points with P/2 (each load point is shared by two symmetric quarters).
    """
    R, E, nu = 10.0, 6.825e7, 0.3
    mat = ShellMaterial(E, nu, R / slenderness)  # refuses t^3 out of range
    P_half = 0.5 * 31250.0 * mat.t ** 3
    return BenchmarkCase(
        id="hemisphere", surface=_GEOMETRY["hemisphere"], material=mat,
        loads=lambda patch, quad_n, area: load_point(
            patch, [(0.0, 0.0), (1.0, 0.0)], [(-P_half, 0.0, 0.0), (0.0, P_half, 0.0)]),
        supports=(("u0", (1,), True, None), ("u1", (0,), True, None),
                  ("u0", (2,), False, 0.0)),
        monitor_theta=(0.0, 0.0), monitor_dir=_radial_sphere, slenderness=slenderness,
        reference=REFERENCES["hemisphere"].get(slenderness),
        initial_mesh=(2, 2), refine_v=True,
        implicit_residual=lambda pos: (np.sum(pos ** 2, axis=-1) - R * R) / (R * R))


def make_scordelis(slenderness: float = 1e2) -> BenchmarkCase:
    """Scordelis-Lo roof, whole geometry, rigid diaphragms at both ends."""
    R, E, nu, qz = 25.0, 4.32e8, 0.0, 90.0
    return BenchmarkCase(
        id="scordelis", surface=_GEOMETRY["scordelis"],
        material=ShellMaterial(E, nu, R / slenderness),
        loads=lambda patch, quad_n, area: load_area(area, [0.0, 0.0, -qz]),
        # the pin of u_y gauges the free axial translation, leaving u_x, u_z
        supports=(("v0", (0, 2), False, None), ("v1", (0, 2), False, None),
                  ("u0", (1,), False, 0.5)),
        monitor_theta=(1.0, 0.5), monitor_dir=_vertical, slenderness=slenderness,
        reference=REFERENCES["scordelis"].get(slenderness),
        initial_mesh=(4, 4), refine_v=True,
        implicit_residual=lambda pos: (pos[..., 0] ** 2 + pos[..., 2] ** 2
                                       - R * R) / (R * R))


def make_hypar(slenderness: float = 1e3) -> BenchmarkCase:
    """Partly clamped hyperbolic paraboloid, half model with symmetry at y=0."""
    L, E, nu = 1.0, 2.0e11, 0.3
    thickness = L / slenderness
    qz = 8000.0 * thickness
    return BenchmarkCase(
        id="hypar", surface=_GEOMETRY["hypar"], material=ShellMaterial(E, nu, thickness),
        loads=lambda patch, quad_n, area: load_area(area, [0.0, 0.0, -qz]),
        supports=(("u0", (0, 1, 2), True, None), ("v0", (1,), True, None)),
        monitor_theta=(1.0, 0.0), monitor_dir=_vertical, slenderness=slenderness,
        reference=REFERENCES["hypar"].get(slenderness),
        initial_mesh=(2, 1), refine_v=True,
        implicit_residual=lambda pos: pos[..., 2] - (pos[..., 0] ** 2
                                                     - pos[..., 1] ** 2))


BENCHMARKS = {"strip": make_strip, "hemisphere": make_hemisphere,
              "scordelis": make_scordelis, "hypar": make_hypar}


def make_case(case_id: str, slenderness: float | None = None) -> BenchmarkCase:
    """Build a benchmark case by id, at its default or the given slenderness."""
    if case_id not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {case_id!r}")
    if slenderness is None:
        return BENCHMARKS[case_id]()
    if not (math.isfinite(slenderness) and slenderness > 0.0):
        raise ValueError("slenderness must be a positive finite number")
    return BENCHMARKS[case_id](slenderness)


# ---------------------------------------------------------------------------
# Solving and convergence sweeps
# ---------------------------------------------------------------------------

def build_loads(case: BenchmarkCase, patch: NurbsSurface, quad_n: int,
                area: np.ndarray) -> np.ndarray:
    """The case's load vector on a patch (quad_n Gauss points per direction,
    ``area`` the area vector of ``assemble``)."""
    return case.loads(patch, quad_n, area)


def solve_case(case: BenchmarkCase, mesh: tuple[int, int], kind: str,
               quad_n: int = 3) -> CaseResult:
    """Mesh, assemble, constrain and solve one benchmark configuration."""
    t0 = time.perf_counter()
    patch = make_uniform(case.surface, *mesh)
    K, area = assemble(patch, case.material, gauss_rule(quad_n), kind)
    F = build_loads(case, patch, quad_n, area)
    reduced = apply_constraints(K, F, *case.constraints(patch))
    del K, F  # not held through the factorization
    trace = solve_spd(reduced.K, reduced.F)
    U = reduced.expand(np.asarray(trace.U, dtype=float)).reshape(-1, 3)
    sol = SolutionField(patch, U, kind, case.material)

    (pos,), (u_mon,) = displacement_at(sol, [case.monitor_theta])
    deflection = float(u_mon @ case.monitor_dir(pos))
    return CaseResult(case=case, solution=sol, mesh=mesh,
                      n_dof=len(reduced.free), deflection=deflection,
                      trace=trace, wall_s=time.perf_counter() - t0)


def run_convergence(case: BenchmarkCase, kind: str, quad_n: int,
                    levels: int) -> list[CaseResult]:
    """Solve a sequence of uniformly refined meshes, one result per level.

    Each result gets the energies, and the L2 resultant errors where the
    case has analytic fields, after its solve has returned.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    results = []
    for level in range(levels):
        res = solve_case(case, case.mesh_at_level(level), kind, quad_n)
        if case.analytic is not None:
            res.e_n11, res.e_m11 = l2_resultant_error(
                res.solution, (case.analytic["n11"], case.analytic["m11"]),
                ("n11", "m11"))
        res.Em, res.Eb, res.Et = energies(res.solution, gauss_rule(quad_n))
        results.append(res)
    return results


def write_report_csv(results, path) -> None:
    """Write one CSV row (``REPORT_COLUMNS``) per result, level = list index,
    in full double precision.

    Wall times are intentionally not written so identical configurations
    produce bitwise-identical files.
    """
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(REPORT_COLUMNS) + "\n")
        for level, res in enumerate(results):
            row = (level, *res.mesh, res.n_dof, res.deflection, res.normalized,
                   res.e_n11, res.e_m11, res.Em, res.Eb, res.Et)
            f.write(",".join(fmt(v) for v in row) + "\n")
