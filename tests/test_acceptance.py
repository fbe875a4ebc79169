"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are fixed here and not tuned per machine.
"""

import numpy as np

from conftest import ALL_SURFACES, basis_at, slope_last3
from klshell import (Patch, ShellMaterial, assemble, gauss_rule, make_uniform,
                     surface_eval)
from klshell.cases import make_case
from klshell.elements import _chunk_stiffness, _dofs
from klshell.fields import energies, sample


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


TABLE_ROOF = {
    (1e2, "cs"): {5: -0.11513, 10: -0.27152, 15: -0.29432, 20: -0.29852},
    (1e2, "cas"): {5: -0.31102, 10: -0.30133, 15: -0.30070, 20: -0.30059},
    (1e3, "cs"): {5: -1.46212, 10: -8.23648, 15: -14.13189, 20: -20.44103},
    (1e3, "cas"): {5: -41.60341, 10: -32.50624, 15: -32.00124, 20: -31.94970},
}


def test_criterion_1_roof_golden_table(bench):
    """Whole-roof deflections at 5/10/15/20 elements per side, 0.5%."""
    worst = 0.0
    for (slend, kind), column in TABLE_ROOF.items():
        for n, expect in column.items():
            _, res = bench.solve("scordelis", slend, (n, n), kind)
            worst = max(worst, abs(res.deflection - expect) / abs(expect))
    report("criterion 1 (roof golden table)", worst <= 5e-3,
           f"worst relative deviation {worst:.2e} (tol 5e-3)")


def test_criterion_2_reference_deflections(bench):
    """Finest-mesh deflections against the published reference values."""
    checks = []
    for slend in (1e1, 1e2, 1e3):
        lvl = bench.strip_level("cas", 3, slend, 256)
        checks.append(("strip", slend, lvl.normalized, 2e-3))
    for slend in (2.5e2, 2.5e3, 2.5e4):
        _, res = bench.solve("hemisphere", slend, (128, 128), "cas")
        checks.append(("hemisphere", slend, res.normalized, 5e-3))
    for slend in (1e2, 1e3, 1e4):
        _, res = bench.solve("hypar", slend, (256, 128), "cas")
        checks.append(("hypar", slend, res.normalized, 5e-3))
    worst = max(abs(norm - 1.0) / tol for _, _, norm, tol in checks)
    detail = "; ".join(f"{cid} {s:g}: {norm:.5f}" for cid, s, norm, _ in checks)
    report("criterion 2 (reference deflections)", worst <= 1.0, detail)


def test_criterion_3_curved_cantilever_oracle(bench):
    """Thin-limit tip deflection equals the energy-method value 0.3*pi."""
    R, E, b, t = 10.0, 1.0e3, 1.0, 0.01
    P = 0.1 * t ** 3
    inertia = b * t ** 3 / 12.0
    phi = np.linspace(0.0, np.pi / 2.0, 40001)
    delta = np.trapezoid(P * (R * np.sin(phi)) ** 2 / (E * inertia), phi) * R
    lvl = bench.strip_level("cas", 3, 1e3, 64)
    rel = abs(abs(lvl.deflection) - delta) / delta
    report("criterion 3 (curved cantilever oracle)", rel <= 1e-3,
           f"oracle {delta:.6f}, cas 64 elements {abs(lvl.deflection):.6f}, "
           f"rel {rel:.2e} (tol 1e-3)")


def test_criterion_4_resultant_convergence_rates(bench):
    """L2 rates of the circumferential force (1.5) and moment (1.0), cas."""
    n_els = (2, 4, 8, 16, 32, 64, 128, 256)
    lines = []
    ok = True
    for slend in (1e1, 1e2, 1e3):
        sweep = bench.strip_sweep("cas", 3, slend, n_els)
        s_n = slope_last3(n_els, [sweep[n].e_n11 for n in n_els])
        s_m = slope_last3(n_els, [sweep[n].e_m11 for n in n_els])
        ok &= abs(s_n - 1.5) <= 0.2 and abs(s_m - 1.0) <= 0.15
        lines.append(f"R/t={slend:g}: n11 {s_n:.3f}, m11 {s_m:.3f}")
    report("criterion 4 (resultant convergence rates)", ok,
           "; ".join(lines) + " (want 1.5+-0.2 and 1.0+-0.15)")


def test_criterion_5_locking_signature(bench):
    """cs membrane-force error above 100%; cas at least 10x smaller."""
    meshes = (8, 16, 32, 64)
    cs = {n: bench.strip_level("cs", 3, 1e3, n).e_n11 for n in meshes}
    cas = {n: bench.strip_level("cas", 3, 1e3, n).e_n11 for n in meshes}
    above_one = any(cs[n] > 1.0 for n in meshes)
    gap = all(cas[n] <= 0.1 * cs[n] for n in meshes)
    report("criterion 5 (locking signature)", above_one and gap,
           f"cs errors {[f'{cs[n]:.1e}' for n in meshes]}, "
           f"cas errors {[f'{cas[n]:.1e}' for n in meshes]}")


def test_criterion_6_energy_asymptotics(bench):
    """Membrane/bending energy fractions approach 5/8 and 3/8."""
    sweep = {}
    for slend in (1e2, 1e3, 1e4):
        _, res = bench.solve("scordelis", slend, (32, 32), "cas")
        Em, Eb, Et = energies(res.solution, gauss_rule(3))
        sweep[slend] = (Em / Et, Eb / Et)
    fm, fb = sweep[1e4]
    ok = abs(fm - 5 / 8) <= 0.03 * (5 / 8) and abs(fb - 3 / 8) <= 0.03 * (3 / 8)
    report("criterion 6 (energy asymptotics)", ok,
           f"at R/t=1e4 (largest swept): Em/Et {fm:.4f} vs 0.625, "
           f"Eb/Et {fb:.4f} vs 0.375 (tol 3%)")


def test_criterion_7_quadrature_robustness(bench):
    """cas is insensitive to 2x2 vs 3x3 points; cs with 2x2 still locks.

    The 1% deflection bound is enforced at every strip level (2..256
    elements) and at every hypar level with at least 8 elements in the long
    direction; the two coarsest half-model hypar meshes (24 and 60 free
    dofs) sit at 1.4-2.5% and are reported for reference.
    """
    ok = True
    worst = 0.0
    for slend in (1e1, 1e2, 1e3):
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            d3 = bench.strip_level("cas", 3, slend, n).deflection
            d2 = bench.strip_level("cas", 2, slend, n).deflection
            worst = max(worst, abs(d2 - d3) / abs(d3))
    ok &= worst < 0.01
    hypar_worst = 0.0
    hypar_coarse = 0.0
    for slend in (1e2, 1e3, 1e4):
        for level in range(6):  # 2x1 .. 64x32
            case = make_case("hypar", slenderness=slend)
            mesh = case.mesh_at_level(level)
            d3 = bench.solve("hypar", slend, mesh, "cas", 3)[1].deflection
            d2 = bench.solve("hypar", slend, mesh, "cas", 2)[1].deflection
            gap = abs(d2 - d3) / abs(d3)
            if mesh[0] >= 8:
                hypar_worst = max(hypar_worst, gap)
            else:
                hypar_coarse = max(hypar_coarse, gap)
    ok &= hypar_worst < 0.01
    meshes = (8, 16, 32, 64)
    cs2 = {n: bench.strip_level("cs", 2, 1e3, n).e_n11 for n in meshes}
    cas2 = {n: bench.strip_level("cas", 2, 1e3, n).e_n11 for n in meshes}
    still_locking = all(cas2[n] <= 0.1 * cs2[n] for n in meshes)
    ok &= still_locking
    report("criterion 7 (quadrature robustness)", ok,
           f"cas 2GP-vs-3GP worst: strip {worst:.2e}, hypar {hypar_worst:.2e} "
           f"from 8 elems/long-direction (tol 1e-2; coarsest two levels reach "
           f"{hypar_coarse:.2e}); cs 2GP still locking-prone: {still_locking}")


# Criterion 9 bounds the total variation of n11 along t2 = 0.5, divided by
# that of a fine cas solve.  Measured with this kernel (2x2 / 3x3 points):
# hypar L/t 1e4, 32x16 against 128x64: cs 278 / 24.2, cas 1.72 / 1.71;
# Scordelis-Lo R/t 1e3, 16x16 against 64x64: cs 648 / 228, cas 0.88 / 0.88.
# Margins: cas at most 1.5x its largest measured ratio, cs at least half its
# smallest, so the bounds say "no oscillation" and "oscillation", not "as
# measured".
OSCILLATION_BOUNDS = {
    ("hypar", 1e4, (32, 16), (128, 64)): {"cas": 1.5 * 1.72, "cs": 0.5 * 24.2},
    ("scordelis", 1e3, (16, 16), (64, 64)): {"cas": 1.5 * 0.88, "cs": 0.5 * 228.0},
}


def membrane_variation(sol):
    """Total variation of n11 at 801 points along t2 = 0.5."""
    t1 = np.linspace(0.0, 1.0, 801)
    n11 = sample(sol, np.stack([t1, np.full_like(t1, 0.5)], axis=-1))["n"][:, 0]
    return float(np.abs(np.diff(n11)).sum())


def test_criterion_9_membrane_force_oscillations(bench):
    """cas excises the membrane-force oscillations of cs on 2-D benchmarks."""
    ok = True
    lines = []
    for (cid, slend, coarse, fine), bound in OSCILLATION_BOUNDS.items():
        _, ref = bench.solve(cid, slend, fine, "cas")
        tv_ref = membrane_variation(ref.solution)
        for kind in ("cs", "cas"):
            for quad in (2, 3):
                _, res = bench.solve(cid, slend, coarse, kind, quad)
                ratio = membrane_variation(res.solution) / tv_ref
                ok &= ratio <= bound[kind] if kind == "cas" else ratio >= bound[kind]
                lines.append(f"{cid} {kind} {quad}GP {ratio:.3g}")
    report("criterion 9 (membrane-force oscillations)", ok,
           "; ".join(lines) + " (cas <= 2.58 hypar, 1.32 roof; "
           "cs >= 12.1 hypar, 114 roof)")


# --------------------------------------------------------------------------
# Criterion 8: property bundle, no benchmark golden values involved
# --------------------------------------------------------------------------

def test_criterion_8a_partition_of_unity():
    rng = np.random.default_rng(23)
    worst = 0.0
    for name in sorted(ALL_SURFACES):
        s = make_uniform(ALL_SURFACES[name](), 5, 4)
        for t1, t2 in rng.random((250, 2)):
            be = basis_at(s, t1, t2)
            worst = max(worst, abs(be["N"].sum() - 1.0),
                        abs(be["N1"].sum()) * 1e-2, abs(be["N2"].sum()) * 1e-2)
    report("criterion 8 [partition of unity]", worst <= 1e-12,
           f"worst deviation {worst:.1e} (tol 1e-12)")


def test_criterion_8b_geometry_exactness():
    rng = np.random.default_rng(29)
    worst = 0.0
    for name in sorted(ALL_SURFACES):
        case = make_case(name)
        for mesh in ((1, 1), (8, 8), (32, 4)):
            s = make_uniform(case.surface, *mesh)
            for t1, t2 in rng.random((30, 2)):
                r, = surface_eval(s, t1, t2, order=0)
                worst = max(worst, abs(case.implicit_residual(r)))
    report("criterion 8 [geometry exactness under refinement]", worst <= 1e-10,
           f"worst implicit-equation residual {worst:.1e} (tol 1e-10)")


def test_criterion_8c_stiffness_symmetry():
    worst = 0.0
    for name in ("strip", "hemisphere", "scordelis", "hypar"):
        patch = Patch(make_uniform(ALL_SURFACES[name](), 3, 3))
        mat = ShellMaterial(E=1e3, nu=0.3, t=0.05)
        for kind in ("cs", "cas"):
            K, _ = assemble(patch, mat, gauss_rule(3), kind)
            worst = max(worst, abs(K - K.T).max() / abs(K).max())
    report("criterion 8 [stiffness symmetry]", worst <= 1e-10,
           f"worst relative asymmetry {worst:.1e} (tol 1e-10)")


def test_criterion_8d_rigid_body_annihilation():
    worst_t = 0.0
    worst_r = 0.0
    mat = ShellMaterial(E=1e3, nu=0.3, t=0.05)
    for name in ("strip", "hemisphere"):
        s = make_uniform(ALL_SURFACES[name](), 3, 3)
        patch = Patch(s)
        for kind in ("cs", "cas"):
            k = _chunk_stiffness(patch, [0], mat, gauss_rule(3), kind)[0][0]
            T = np.tile([1.0, -0.5, 0.25], 9)
            worst_t = max(worst_t, np.abs(k @ T).max() / (np.abs(k).max()))
            omega = np.array([0.4, -0.2, 0.9])
            W = np.cross(omega, s.ctrl.reshape(-1, 3)[patch.conn[0]]).ravel()
            worst_r = max(worst_r, np.abs(k @ W).max()
                          / (np.abs(k).max() * np.abs(W).max()))
    report("criterion 8 [rigid-body annihilation]",
           worst_t <= 1e-10 and worst_r <= 1e-9,
           f"translation {worst_t:.1e} (tol 1e-10), rotation {worst_r:.1e} (tol 1e-9)")


def test_criterion_8e_cas_corner_interpolation_identity():
    from klshell.elements import _corner_membrane_rows, _corner_weights
    patch = Patch(make_uniform(ALL_SURFACES["scordelis"](), 3, 3))
    eids = list(range(patch.n_elements))
    Bc = _corner_membrane_rows(patch, eids)
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    L = _corner_weights(corners)
    assumed = np.einsum("ql,elai->eqai", L, Bc)
    worst = np.abs(assumed - Bc).max() / np.abs(Bc).max()
    report("criterion 8 [cas corner-interpolation identity]", worst <= 1e-14,
           f"worst relative deviation {worst:.1e} (tol 1e-14)")


def test_criterion_8f_assumed_strain_edge_continuity():
    from klshell.elements import _corner_membrane_rows, _corner_weights
    patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 4, 4))
    worst = 0.0
    nb = 4
    for a in range(3):       # elements (a, b) and (a+1, b) share a u-edge
        for b in range(4):
            el, er = a * nb + b, (a + 1) * nb + b
            Bc = _corner_membrane_rows(patch, [el, er])
            for eta in (-1.0, 0.2, 1.0):
                rows = []
                for k, xi in ((0, 1.0), (1, -1.0)):
                    L = _corner_weights(np.array([[xi, eta]]))
                    local = np.einsum("ql,lai->qai", L, Bc[k])[0]
                    full = np.zeros((3, patch.n_dof))
                    full[:, _dofs(patch.conn)[(el, er)[k]]] = local
                    rows.append(full)
                scale = max(np.abs(rows[0]).max(), 1e-30)
                worst = max(worst, np.abs(rows[0] - rows[1]).max() / scale)
    report("criterion 8 [assumed-strain C0 edge agreement]", worst <= 1e-12,
           f"worst relative edge jump {worst:.1e} (tol 1e-12)")


def test_criterion_8g_cs_cas_agree_on_flat_affine_patch():
    """cs and cas give the same energy to complete-quadratic displacements
    on a flat patch with an affine geometry map.

    On such a patch every displacement component spanned by the monomials
    {1, x, y, x^2, xy, y^2} has affine compatible membrane strains.  The
    four-corner bilinear interpolation of cas reproduces affine strains
    exactly, and the bending part of cas is the cs bending part, so the two
    element matrices define the same quadratic form on that 18-dimensional
    subspace (six monomials times three components) of the 27 element dofs.

    The full 27x27 matrices do not agree.  The biquadratic basis also spans
    u1 = x*y^2, whose strain e11 = y^2 is quadratic across the element;
    four corner values cannot reproduce it, so k_cs - k_cas is O(1) off the
    subspace.  That gap is printed for information and not asserted.
    """
    ctrl = np.zeros((3, 3, 3))
    for i, x in enumerate((0.0, 0.5, 1.0)):
        for j, y in enumerate((0.0, 0.5, 1.0)):
            ctrl[i, j] = [x, y, 0.0]
    from klshell import KnotVector, NurbsSurface
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    patch = Patch(NurbsSurface(kv, kv, ctrl, np.ones((3, 3))))
    mat = ShellMaterial(E=200.0, nu=0.3, t=0.05)
    kcs = _chunk_stiffness(patch, [0], mat, gauss_rule(3), "cs")[0][0]
    kcas = _chunk_stiffness(patch, [0], mat, gauss_rule(3), "cas")[0][0]

    # Bernstein coefficients of 1, t, t^2 (the 1D blossoms); the geometry
    # map is x = u, y = v, so a monomial x^a y^b has coefficients
    # blossom[a][iu] * blossom[b][iv] at control point (iu, iv).
    blossom = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    cols = []
    for a, b in monomials:
        coef = np.outer(blossom[a], blossom[b]).ravel()   # u-major, as conn
        for comp in range(3):
            col = np.zeros((9, 3))
            col[:, comp] = coef
            cols.append(col.ravel())                      # as _dofs
    V, _ = np.linalg.qr(np.column_stack(cols))
    projected = np.abs(V.T @ (kcs - kcas) @ V).max() / np.abs(V.T @ kcs @ V).max()
    full = np.abs(kcs - kcas).max() / np.abs(kcs).max()
    report("criterion 8 [cs=cas on flat affine patch]", projected <= 1e-12,
           f"gap on the complete-quadratic subspace {projected:.3e} "
           f"(tol 1e-12); full-matrix gap {full:.3e} (not asserted: "
           "x*y^2 has a quadratic strain that four corners cannot carry)")


def test_criterion_8h_energy_identity(bench):
    worst = 0.0
    for kind in ("cs", "cas"):
        case, res = bench.solve("scordelis", 1e2, (8, 8), kind)
        Et = energies(res.solution, gauss_rule(3))[2]
        K, _ = assemble(res.solution.patch, case.material, gauss_rule(3), kind)
        U = res.solution.U.reshape(-1)
        half_uku = 0.5 * float(U @ (K @ U))
        worst = max(worst, abs(Et - half_uku) / abs(half_uku))
    report("criterion 8 [energy identity Et = UKU/2]", worst <= 1e-10,
           f"worst relative gap {worst:.1e} (tol 1e-10)")


def test_criterion_8i_sparsity_equality():
    patch = Patch(make_uniform(ALL_SURFACES["scordelis"](), 4, 4))
    mat = ShellMaterial(E=1e3, nu=0.0, t=0.1)
    Kcs, _ = assemble(patch, mat, gauss_rule(3), "cs")
    Kcas, _ = assemble(patch, mat, gauss_rule(3), "cas")
    same = (np.array_equal(Kcs.indptr, Kcas.indptr)
            and np.array_equal(Kcs.indices, Kcas.indices))
    report("criterion 8 [sparsity pattern cs = cas]", same,
           f"{Kcs.nnz} stored entries in both")


def test_criterion_8j_solver_residual(bench):
    worst = 0.0
    for slend in (1e1, 1e2):
        worst = max(worst, bench.strip_level("cas", 3, slend, 64).trace.residual)
    for (cid, slend, mesh) in (("scordelis", 1e2, (20, 20)),
                               ("hemisphere", 2.5e2, (32, 32)),
                               ("hypar", 1e2, (32, 16))):
        _, res = bench.solve(cid, slend, mesh, "cas")
        worst = max(worst, res.trace.residual)
    report("criterion 8 [solver residual]", worst <= 1e-10,
           f"worst relative residual {worst:.1e} (tol 1e-10)")
