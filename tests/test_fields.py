"""Displacements, resultants, energies, L2 errors and the field sampler."""

import io

import numpy as np
import pytest

from conftest import ALL_SURFACES
from klshell import (KnotVector, NurbsSurface, Patch, ShellMaterial,
                     SolutionField, apply_constraints, assemble, displacement_at,
                     energies, gauss_rule, l2_resultant_error, make_uniform,
                     resultants_at, solve_spd, surface_eval, write_field)
from klshell.cases import build_loads, make_case

KV2 = KnotVector([0, 0, 0, 1, 1, 1], 2)
MAT = ShellMaterial(E=100.0, nu=0.3, t=0.02)


def flat_patch():
    ctrl = np.zeros((3, 3, 3))
    for i, x in enumerate((0.0, 0.5, 1.0)):
        for j, y in enumerate((0.0, 0.5, 1.0)):
            ctrl[i, j] = [x, y, 0.0]
    return Patch(NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3))))


def solved_case(case_id, slenderness, mesh, kind):
    case = make_case(case_id, slenderness=slenderness)
    surface = make_uniform(case.surface, *mesh)
    patch = Patch(surface)
    K = assemble(patch, case.material, gauss_rule(3), kind)
    red = apply_constraints(K, build_loads(case, patch, 3), *case.constraints(patch))
    U = red.expand(np.asarray(solve_spd(red.K, red.F), float)).reshape(-1, 3)
    return case, SolutionField(patch, U, kind, case.material), red


class TestDisplacement:
    def test_constant_coefficients(self):
        patch = flat_patch()
        c = np.array([0.1, -0.2, 0.3])
        sol = SolutionField(patch, np.tile(c, (9, 1)), "cs", MAT)
        for theta in ((0.0, 0.0), (0.3, 0.7), (1.0, 1.0)):
            assert np.allclose(displacement_at(sol, *theta), c, atol=1e-14)

    def test_zero_solution(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cas", MAT)
        assert np.allclose(displacement_at(sol, 0.4, 0.6), 0.0)


class TestResultants:
    def test_zero_solution_zero_resultants(self):
        patch = flat_patch()
        for kind in ("cs", "cas"):
            sol = SolutionField(patch, np.zeros((9, 3)), kind, MAT)
            n, m, neff = resultants_at(sol, 0.3, 0.3)
            assert n[0] == n[1] == n[2] == 0.0
            assert m[0] == 0.0 and neff[0] == 0.0

    def test_uniform_stretch_constant_membrane_force(self):
        patch = flat_patch()
        alpha = 1e-3
        U = np.array([[alpha * q[0], 0.0, 0.0]
                      for q in patch.surface.ctrl.reshape(-1, 3)])
        sol = SolutionField(patch, U, "cs", MAT)
        expect = MAT.membrane_stiffness * alpha  # nhat11 = E t e11 / (1 - nu^2)
        for theta in ((0.1, 0.9), (0.5, 0.5)):
            n, m, neff = resultants_at(sol, *theta)
            assert abs(n[0] - expect) < 1e-12 * expect
            assert abs(m[0]) < 1e-12 * expect
            assert abs(neff[0] - expect) < 1e-12 * expect

    def test_cas_membrane_force_continuous_across_edges(self):
        """Corner-interpolated strains give C0 membrane forces for any U."""
        surface = make_uniform(ALL_SURFACES["hemisphere"](), 4, 4)
        patch = Patch(surface)
        rng = np.random.default_rng(21)
        U = rng.standard_normal((patch.n_cp, 3)) * 1e-3
        sol = SolutionField(patch, U, "cas", MAT)
        knots = surface.kv_u.knots
        edge_u = 0.5  # interior knot line
        for t2 in (0.1, 0.55, 0.9):
            e_left, e_right = patch.locate([(edge_u - 1e-9, t2), (edge_u + 1e-9, t2)])
            nl = resultants_at(sol, edge_u, t2, eid=e_left)[0]
            nr = resultants_at(sol, edge_u, t2, eid=e_right)[0]
            scale = max(np.abs(nl).max(), 1e-30)
            assert np.abs(nl - nr).max() <= 1e-10 * scale


class TestEnergies:
    def test_zero_solution(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        rep = energies(sol, gauss_rule(3))
        assert rep.Em == rep.Eb == rep.Et == 0.0

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_energy_identity_et_equals_half_uku(self, kind):
        case, sol, red = solved_case("scordelis", 1e2, (8, 8), kind)
        rep = energies(sol, gauss_rule(3))
        # recompute through the reduced operator to include multipoint maps;
        # the free dofs are the masters, so U = T q gives q = U[free]
        q = sol.U.reshape(-1)[red.free]
        uku = 0.5 * float(q @ (red.K @ q))
        assert abs(rep.Et - uku) <= 1e-10 * abs(uku)
        assert abs(rep.Et - (rep.Em + rep.Eb)) <= 1e-15 * abs(rep.Et)

    def test_ratios(self):
        case, sol, _ = solved_case("scordelis", 1e2, (8, 8), "cas")
        rep = energies(sol, gauss_rule(3))
        assert 0.0 <= rep.membrane_fraction <= 1.0
        assert abs(rep.membrane_fraction + rep.bending_fraction - 1.0) < 1e-12


class TestL2Error:
    def test_exact_field_gives_zero(self):
        patch = flat_patch()
        alpha = 2e-3
        U = np.array([[alpha * q[0], 0.0, 0.0]
                      for q in patch.surface.ctrl.reshape(-1, 3)])
        sol = SolutionField(patch, U, "cs", MAT)
        expect = MAT.membrane_stiffness * alpha
        err = l2_resultant_error(sol, lambda pos: np.full(pos.shape[:-1], expect),
                                 "n11")
        assert err < 1e-12

    def test_zero_solution_gives_one(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        err = l2_resultant_error(sol, lambda pos: np.ones(pos.shape[:-1]), "n11")
        assert abs(err - 1.0) < 1e-14

    def test_zero_norm_field_raises(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        with pytest.raises(ValueError):
            l2_resultant_error(sol, lambda pos: np.zeros(pos.shape[:-1]), "n11")

    def test_unknown_component_raises(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        with pytest.raises(ValueError):
            l2_resultant_error(sol, lambda pos: np.ones(pos.shape[:-1]), "n22")

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_tuple_matches_single_components(self, kind):
        """One pass over several components gives each single call's float."""
        case, sol, _ = solved_case("strip", 1e2, (8, 1), kind)
        names = ("n11", "m11", "neff11")
        fields = tuple(case.analytic[w] for w in names)
        errors = l2_resultant_error(sol, fields, names)
        assert isinstance(errors, tuple) and len(errors) == 3
        assert errors == tuple(l2_resultant_error(sol, f, w)
                               for f, w in zip(fields, names))
        with pytest.raises(ValueError):
            l2_resultant_error(sol, fields[:2], names)


class TestFieldSampler:
    def test_format_and_row_count(self):
        case, sol, _ = solved_case("strip", 1e2, (8, 1), "cas")
        buf = io.StringIO()
        write_field(sol, buf, {"benchmark": "strip", "element": "cas",
                               "mesh": "8x1", "slenderness": "100"}, density=6)
        text = buf.getvalue()
        lines = text.strip().split("\n")
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("benchmark: strip" in h for h in header)
        assert any("columns:" in h for h in header)
        assert len(data) == 36
        row = np.array([float(x) for x in data[0].split()])
        assert len(row) == 15
        # first sample sits at the clamped corner: position (0, R, z)
        assert abs(row[2]) < 1e-12 and abs(row[3] - 10.0) < 1e-12

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_rows_match_point_queries(self, kind):
        """Each row equals displacement_at and resultants_at at its (t1, t2).

        At density 5 on a 2x2 mesh the samples with t = 0.5 lie on the
        interior knot lines, where the bending moments jump between
        elements, so each row depends on which element owns its point.
        """
        patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 2, 2))
        U = np.random.default_rng(17).standard_normal((patch.n_cp, 3)) * 1e-3
        sol = SolutionField(patch, U, kind, MAT)
        buf = io.StringIO()
        write_field(sol, buf, {}, density=5)
        rows = np.array([[float(x) for x in line.split()]
                         for line in buf.getvalue().splitlines()
                         if not line.startswith("#")])
        assert rows.shape == (25, 15)
        expect = []
        for t1, t2 in rows[:, :2]:
            r, = surface_eval(patch.surface, t1, t2, order=0)
            n, m, neff = resultants_at(sol, t1, t2)
            expect.append([t1, t2, *r, *displacement_at(sol, t1, t2),
                           *n, *m, neff[0]])
        expect = np.array(expect)
        scale = np.abs(expect).max(axis=0)
        assert np.all(np.abs(rows - expect) <= 1e-12 * scale)

        # the owner matters: the element below the knot line t1 = 0.5 gives
        # other moments at the same points
        jump = 0.0
        for row in rows[rows[:, 0] == 0.5]:
            below = patch.locate((0.25, row[1]))
            m_below = resultants_at(sol, 0.5, row[1], eid=below)[1]
            jump = max(jump, abs(m_below[0] - row[11]))
        assert jump > 1e-6 * scale[11]
