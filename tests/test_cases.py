"""Benchmark definitions, convergence driver, and report output."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from klshell import NumericalError, NurbsSurface, make_uniform, surface_eval
from klshell.cases import (REPORT_COLUMNS, make_case, run_convergence, solve_case,
                           write_report_csv)
from klshell.elements import rotation_rows
from klshell.fields import sample
from klshell.shell import frame_arrays


class TestGeometryExactness:
    @pytest.mark.parametrize("case_id,tol", [
        ("strip", 1e-10), ("hemisphere", 1e-10),
        ("scordelis", 1e-10), ("hypar", 1e-12),
    ])
    def test_implicit_equation_after_refinement(self, case_id, tol):
        case = make_case(case_id)
        rng = np.random.default_rng(17)
        for mesh in ((1, 1), (6, 5), (16, 3)):
            s = make_uniform(case.surface, *mesh)
            for t1, t2 in rng.random((40, 2)):
                r, = surface_eval(s, t1, t2, order=0)
                assert abs(case.implicit_residual(r)) < tol

    def test_monitor_point_on_patch(self):
        for case_id in ("strip", "hemisphere", "scordelis", "hypar"):
            case = make_case(case_id)
            t1, t2 = case.monitor_theta
            assert 0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0
            r, = surface_eval(case.surface, t1, t2, order=0)
            assert abs(case.implicit_residual(r)) < 1e-10

    def test_hemisphere_monitor_is_loaded_corner(self):
        case = make_case("hemisphere")
        r, = surface_eval(case.surface, *case.monitor_theta, order=0)
        assert np.allclose(r, [10.0, 0.0, 0.0], atol=1e-12)


class TestCaseFactories:
    def test_slenderness_to_thickness(self):
        case = make_case("strip", slenderness=1e2)
        assert abs(case.material.t - 0.1) < 1e-14
        case = make_case("hypar", slenderness=1e3)
        assert abs(case.material.t - 1e-3) < 1e-18

    def test_exclusive_selectors(self):
        with pytest.raises(ValueError):
            make_case("nosuch")

    @pytest.mark.parametrize("case_id,slenderness", [("hypar", 2.5e4), ("strip", 1e6)])
    def test_slenderness_stored_as_given(self, case_id, slenderness):
        """The stored value, which field.dat's header prints, is the one
        asked for, not R/t recomputed from the thickness."""
        case = make_case(case_id, slenderness=slenderness)
        assert case.slenderness == slenderness

    def test_reference_lookup(self):
        assert make_case("strip", slenderness=1e2).reference == -9.4250e-1
        assert make_case("scordelis", slenderness=1e3).reference == -3.2010e1
        assert make_case("strip", slenderness=81.3).reference is None

    @pytest.mark.parametrize("selector", [{"slenderness": np.nan},
                                          {"slenderness": np.inf},
                                          {"slenderness": 0.0}])
    def test_non_finite_selector_raises(self, selector):
        with pytest.raises(ValueError, match="finite"):
            make_case("strip", **selector)

    @pytest.mark.parametrize("case_id", ["strip", "hemisphere", "scordelis", "hypar"])
    @pytest.mark.parametrize("slenderness", [1e-300, 1e-110, 1e250, 1e300])
    def test_stiffness_out_of_float_range_raises(self, case_id, slenderness):
        """t^3 overflows at the thick end and underflows to 0 at the thin
        end: either is a usage error, not a traceback or a zero deflection."""
        with pytest.raises(ValueError, match="normal float range"):
            make_case(case_id, slenderness=slenderness)

    @pytest.mark.parametrize("mesh", [(0, 1), (-3, 1), (2, 0)])
    def test_empty_mesh_raises(self, mesh):
        with pytest.raises(ValueError, match="at least one element"):
            solve_case(make_case("strip"), mesh, "cas")

    def test_mesh_levels(self):
        strip = make_case("strip")
        assert strip.mesh_at_level(0) == (2, 1)
        assert strip.mesh_at_level(3) == (16, 1)
        hypar = make_case("hypar")
        assert hypar.mesh_at_level(2) == (8, 4)
        assert make_case("scordelis").mesh_at_level(1) == (8, 8)
        # single meshes follow the same rule at any per-side count
        assert hypar.mesh_per_side(3) == (3, 1)
        assert make_case("hemisphere").mesh_per_side(5) == (5, 5)
        assert strip.mesh_per_side(5) == (5, 1)


class TestCurvedCantileverOracle:
    def test_thin_limit_tip_deflection(self, bench):
        """Unit-force energy method for a quarter-circle cantilever.

        delta = integral of M dM/dP / (E I) ds with M = P R sin(phi),
        evaluated by quadrature, independent of the shell kernel.
        """
        R, E, b, t = 10.0, 1.0e3, 1.0, 0.01
        P = 0.1 * t ** 3
        inertia = b * t ** 3 / 12.0
        phi = np.linspace(0.0, np.pi / 2.0, 20001)
        delta = np.trapezoid(P * (R * np.sin(phi)) ** 2 / (E * inertia), phi) * R
        lvl = bench.strip_level("cas", 3, 1e3, 64)
        assert abs(abs(lvl.deflection) - delta) <= 1e-3 * delta


class TestConvergenceDriver:
    def test_single_level_report(self):
        case = make_case("strip", slenderness=1e2)
        results = run_convergence(case, "cas", 3, 1)
        assert len(results) == 1
        res = results[0]
        assert res.mesh == (2, 1)
        assert res.e_n11 is not None and res.Em is not None

    def test_levels_increase(self):
        case = make_case("scordelis", slenderness=1e2)
        results = run_convergence(case, "cas", 3, 2)
        assert [res.mesh[0] for res in results] == [4, 8]

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            run_convergence(make_case("strip"), "cas", 3, 0)

    def test_locking_free_normalized_window(self, bench):
        """cas deflections stay within 10% of the reference once every
        direction carries at least 8 elements."""
        for slend in (1e1, 1e3):
            for n in (8, 16):
                lvl = bench.strip_level("cas", 3, slend, n)
                assert 0.9 <= lvl.normalized <= 1.1
        for case_id, slend, mesh in (("scordelis", 1e2, (8, 8)),
                                     ("hemisphere", 2.5e2, (8, 8)),
                                     ("hypar", 1e2, (16, 8))):
            case, res = bench.solve(case_id, slend, mesh, "cas")
            assert 0.9 <= res.normalized <= 1.1

    def test_strip_membrane_energy_fraction_matches_fine_mesh(self, bench):
        """8-element membrane energy fraction tracks the converged one."""
        for slend in (1e1, 1e2, 1e3):
            c8 = bench.strip_level("cas", 3, slend, 8)
            c256 = bench.strip_level("cas", 3, slend, 256)
            f8 = c8.Em / c8.Et
            f256 = c256.Em / c256.Et
            assert abs(f8 - f256) <= 0.02 * f256


class TestCsCompliance:
    """Knot insertion nests the cs trial spaces, so the strain energy
    Et = F'U / 2 of a cs solve rises from level to level.  The rotation ties
    of the hypar and the hemisphere are collocated and the integrands are
    rational, so this holds only approximately there: the sign is asserted
    over the levels measured, at 3x3 points.  At 2x2 points it fails: the
    strip at R/t 1e3 loses 2% of Et from 2 to 4 elements."""

    @pytest.mark.parametrize("case_id,slenderness,levels", [
        ("strip", 1e1, 8), ("strip", 1e2, 8), ("strip", 1e3, 8),
        ("scordelis", 1e2, 5), ("scordelis", 1e3, 5),
        ("hypar", 1e2, 6), ("hypar", 1e4, 6),
        ("hemisphere", 2.5e2, 5), ("hemisphere", 2.5e4, 5)])
    def test_energy_rises_at_every_level(self, bench, case_id, slenderness, levels):
        if case_id == "strip":  # the sweep other strip tests share
            results = bench.strip_sweep("cs", 3, slenderness).values()
        else:
            results = run_convergence(make_case(case_id, slenderness=slenderness),
                                      "cs", 3, levels)
        Et = np.array([res.Et for res in results])
        assert len(Et) == levels and np.all(np.diff(Et) > 0.0), Et


class TestCoarseMeshClaim:
    """The paper's claim that cas is closer to the published deflection
    than cs on coarse meshes holds on the strip in a window of meshes: the
    meshes of the 2-256 element sweep where cas has the smaller
    |normalized - 1|, as measured.  Outside it cs is closer: at 2 elements
    with 2x2 points, and past the window's upper end, where both are within
    2.5% of the reference.  With 3x3 points at R/t 1e3 cas is closer on
    every mesh.  At R/t 1e1 the window is empty at quad 2 and {2, 4} at
    quad 3; that thick strip does not lock, and it is not asserted."""

    @pytest.mark.parametrize("slenderness,quad,window", [
        (1e2, 2, [4]),
        (1e2, 3, [2, 4, 8, 16, 32]),
        (1e3, 2, [4, 8, 16]),
        (1e3, 3, [2, 4, 8, 16, 32, 64, 128, 256])])
    def test_cas_is_closer_exactly_in_the_window(self, bench, slenderness, quad, window):
        error = {kind: {n: abs(res.normalized - 1.0)
                        for n, res in bench.strip_sweep(kind, quad, slenderness).items()}
                 for kind in ("cs", "cas")}
        closer = [n for n in error["cs"] if error["cas"][n] < error["cs"][n]]
        assert closer == window, error


class TestConstraintRows:
    @pytest.mark.parametrize("case_id", ["hemisphere", "hypar"])
    @pytest.mark.parametrize("edge", ["u0", "u1", "v0", "v1"])
    def test_rotation_rows_match_per_station_frames(self, case_id, edge):
        """Each batched row is a3 . (U_row0 - U_row1), edge row first, with
        a3 from the frame at its Greville station."""
        s = make_uniform(make_case(case_id).surface, 7, 5)
        nu, nv = s.shape
        along = s.kv_v if edge in ("u0", "u1") else s.kv_u
        rows = rotation_rows(s, edge)
        assert len(rows) == along.n_basis
        for j, (dofs, coeffs) in enumerate(rows):
            g = float(np.mean(along.knots[j + 1: j + 1 + along.degree]))
            theta, cp0, cp1 = {
                "u0": ((0.0, g), (0, j), (1, j)),
                "u1": ((1.0, g), (nu - 1, j), (nu - 2, j)),
                "v0": ((g, 0.0), (j, 0), (j, 1)),
                "v1": ((g, 1.0), (j, nv - 1), (j, nv - 2)),
            }[edge]
            a3 = frame_arrays(*surface_eval(s, *theta)[1:])["a3"]
            g0, g1 = cp0[0] * nv + cp0[1], cp1[0] * nv + cp1[1]
            assert list(dofs) == [3 * g0, 3 * g0 + 1, 3 * g0 + 2,
                                  3 * g1, 3 * g1 + 1, 3 * g1 + 2]
            assert np.max(np.abs(coeffs - np.concatenate([a3, -a3]))) <= 1e-14


def transposed(case):
    """The case with u and v swapped: the same shell and supports, numbered
    v-major.  It carries the original case's load vector, permuted, and
    gives that case its area vector permuted back."""
    def swap(s):
        return NurbsSurface(s.kv_v, s.kv_u, s.ctrl.transpose(1, 0, 2), s.weights.T)

    def loads(patch, quad_n, area):
        area = area.reshape(patch.shape).T.ravel()
        F = case.loads(swap(patch), quad_n, area)
        return F.reshape(*patch.shape[::-1], 3).transpose(1, 0, 2).ravel()

    edge = {"u0": "v0", "u1": "v1", "v0": "u0", "v1": "u1"}
    return replace(case, surface=swap(case.surface), loads=loads,
                   supports=tuple((edge[e], *rest) for e, *rest in case.supports),
                   monitor_theta=case.monitor_theta[::-1],
                   initial_mesh=case.initial_mesh[::-1])


def trace_det(voigt):
    """Trace and determinant of local-Cartesian (11, 22, 12) tensors (n, 3)."""
    return (voigt[:, 0] + voigt[:, 1],
            voigt[:, 0] * voigt[:, 1] - voigt[:, 2] ** 2)


class TestTransposition:
    """Swapping u and v renumbers control points and dofs, and changes
    nothing else: the stencil slots, the edge table, the rotation ties and
    the band all meet the other numbering."""

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("hypar", (8, 4)), ("hypar", (16, 8)), ("scordelis", (8, 8)),
        ("scordelis", (6, 4)), ("hemisphere", (8, 8)), ("hemisphere", (8, 4)),
    ])
    def test_same_answer(self, case_id, mesh, kind, quad):
        """Deflections, displacements and the invariants of the resultants
        agree to 1e-8 at 10 random points; they measured up to 2.4e-10
        (deflections and u) and 8.6e-10 (invariants).  Transposing flips
        a3, so the trace of m changes sign.

        The cas roof keeps its zero-energy generator mode, whose amplitude
        depends on the numbering: its displacements differ by 2.6e-2 to
        1.3 relative while its deflection agrees to 2.3e-12, so its u is
        not compared."""
        case = make_case(case_id)
        res = solve_case(case, mesh, kind, quad)
        res_t = solve_case(transposed(case), mesh[::-1], kind, quad)
        assert abs(res_t.deflection - res.deflection) <= 1e-8 * abs(res.deflection)

        theta = np.random.default_rng(5).random((10, 2))
        p, p_t = sample(res.solution, theta), sample(res_t.solution, theta[:, ::-1])
        if not (case_id == "scordelis" and kind == "cas"):
            assert np.abs(p_t["u"] - p["u"]).max() <= 1e-8 * np.abs(p["u"]).max()
        for key, sign in (("n", 1.0), ("m", -1.0), ("neff", 1.0)):
            (tr, det), (tr_t, det_t) = trace_det(p[key]), trace_det(p_t[key])
            assert np.abs(tr_t - sign * tr).max() <= 1e-8 * np.abs(tr).max()
            assert np.abs(det_t - det).max() <= 1e-8 * np.abs(det).max()


def rotated(case, Q):
    """The case turned rigidly by the rotation matrix Q, with its loads and
    monitor direction."""
    def turn(s, Q):
        return NurbsSurface(s.kv_u, s.kv_v, s.ctrl @ Q.T, s.weights)

    def loads(patch, quad_n, area):
        F = case.loads(turn(patch, Q.T), quad_n, area)
        return (F.reshape(-1, 3) @ Q.T).ravel()

    return replace(case, surface=turn(case.surface, Q), loads=loads,
                   monitor_dir=lambda pos: Q @ case.monitor_dir(Q.T @ pos))


class TestRigidRotation:
    """A rigid rotation of the strip, with its load and monitor direction,
    changes neither the deflection nor the local-Cartesian resultants: the
    clamp fixes all three components, so the supports turn with the shell.

    The cas strips at R/t 1e2 and 1e3 are left out of the sweep: their
    generator zero-energy mode (ROADMAP item 3) makes 10 of 80 rotated
    strips (five rotations, 2 to 128 elements, quad 2 and 3) raise
    NumericalError where the unrotated ones solve.
    ``test_cas_generator_mode_fails_a_rotated_strip`` keeps one of them."""

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("kind,slenderness",
                             [("cs", 1e1), ("cs", 1e2), ("cs", 1e3), ("cas", 1e1)])
    @pytest.mark.parametrize("seed,n_el", [(0, 2), (1, 8), (2, 32), (3, 128), (4, 8)])
    def test_same_answer(self, bench, seed, n_el, kind, slenderness, quad):
        """Over all five rotations at 2, 8, 32 and 128 elements, deflections
        and resultants at 10 random points agreed to 4.3e-8 at R/t up to 1e2
        and 3.9e-7 at 1e3, with roundoff amplified by the conditioning; the
        tolerances leave a margin of more than 10."""
        Q = Rotation.random(random_state=seed).as_matrix()
        case, res = bench.solve("strip", slenderness, (n_el, 1), kind, quad)
        res_q = solve_case(rotated(case, Q), (n_el, 1), kind, quad)
        tol = 5e-6 if slenderness > 1e2 else 5e-7
        assert abs(res_q.deflection - res.deflection) <= tol * abs(res.deflection)
        theta = np.random.default_rng(5).random((10, 2))
        p, p_q = sample(res.solution, theta), sample(res_q.solution, theta)
        for key in ("n", "m"):
            assert np.abs(p_q[key] - p[key]).max() <= tol * np.abs(p[key]).max()

    @pytest.mark.xfail(strict=True, raises=NumericalError,
                       reason="cas generator zero-energy mode, not gauged "
                              "(ROADMAP item 3)")
    def test_cas_generator_mode_fails_a_rotated_strip(self):
        """Refinement stops above tolerance and floor on this rotated cas
        strip, while the unrotated one solves."""
        Q = Rotation.random(random_state=3).as_matrix()
        solve_case(rotated(make_case("strip", slenderness=1e3), Q), (8, 1), "cas", 2)


class TestReportCsv:
    def _results(self):
        case = make_case("strip", slenderness=1e2)
        return run_convergence(case, "cas", 3, 2)

    def test_csv_shape_and_parse(self, tmp_path):
        results = self._results()
        write_report_csv(results, tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[4]) == results[0].deflection

    def test_slenderness_without_a_reference_leaves_normalized_empty(self, tmp_path):
        write_report_csv(run_convergence(make_case("strip", 5e2), "cas", 3, 1),
                         tmp_path / "report.csv")
        row = (tmp_path / "report.csv").read_text().split("\n")[1].split(",")
        assert row[REPORT_COLUMNS.index("normalized")] == ""

    def test_csv_bitwise_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(self._results(), a)
        write_report_csv(self._results(), b)
        assert a.read_bytes() == b.read_bytes()


class TestConvergedResultantFields:
    """Converged strip fields against the closed-form force and moment."""

    def test_effective_membrane_field(self, bench):
        case, res = bench.solve("strip", 1e3, (64, 1), "cas")
        from klshell.fields import l2_resultant_error
        err, = l2_resultant_error(res.solution, (case.analytic["neff11"],), ("neff11",))
        assert err < 0.02

    def test_pointwise_signs_match_closed_form(self, bench):
        case, res = bench.solve("strip", 1e3, (64, 1), "cas")
        qx, R = -0.1 * case.material.t ** 3, 10.0
        p = sample(res.solution, [(t1, 0.5) for t1 in (0.2, 0.5, 0.8)])
        for i, t1 in enumerate((0.2, 0.5, 0.8)):
            r, = surface_eval(res.solution.patch, t1, 0.5, order=0)
            phi = np.arctan2(r[0], r[1])
            assert abs(p["neff"][i, 0] - qx * np.cos(phi)) < 0.02 * abs(qx)
            assert abs(p["m"][i, 0] - (-qx * R * np.cos(phi))) < 0.02 * abs(qx * R)
            assert abs(p["n"][i, 0] - 2 * qx * np.cos(phi)) < 0.02 * abs(qx)

    def test_cas_deflection_converges_by_16_elements(self, bench):
        for slend in (1e1, 1e2, 1e3):
            lvl = bench.strip_level("cas", 3, slend, 16)
            assert lvl.normalized >= 0.99

    def test_cs_membrane_error_grows_under_early_refinement(self, bench):
        errs = [bench.strip_level("cs", 3, 1e3, n).e_n11 for n in (8, 16, 32)]
        assert errs[1] > errs[0]
