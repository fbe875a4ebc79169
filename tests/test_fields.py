"""Displacements, resultants, energies, L2 errors and the field sampler."""

import numpy as np
import pytest

from conftest import ALL_SURFACES
from klshell import (DomainError, KnotVector, NurbsSurface, Patch, ShellMaterial,
                     SolutionField, apply_constraints, assemble, displacement_at,
                     energies, gauss_rule, l2_resultant_error, make_uniform,
                     sample, solve_spd, surface_eval, write_field)
import klshell.fields as fields
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
    K, area = assemble(patch, case.material, gauss_rule(3), kind)
    red = apply_constraints(K, build_loads(case, patch, 3, area), *case.constraints(patch))
    U = red.expand(np.asarray(solve_spd(red.K, red.F).U, float)).reshape(-1, 3)
    return case, SolutionField(patch, U, kind, case.material), red


class TestDisplacement:
    def test_constant_coefficients(self):
        patch = flat_patch()
        c = np.array([0.1, -0.2, 0.3])
        sol = SolutionField(patch, np.tile(c, (9, 1)), "cs", MAT)
        r, u = displacement_at(sol, [(0.0, 0.0), (0.3, 0.7), (1.0, 1.0)])
        assert np.allclose(u, c, atol=1e-14)
        assert np.allclose(r, [[0.0, 0.0, 0.0], [0.3, 0.7, 0.0], [1.0, 1.0, 0.0]],
                           atol=1e-14)

    def test_zero_solution(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cas", MAT)
        assert np.allclose(displacement_at(sol, [(0.4, 0.6)])[1], 0.0)


class TestResultants:
    def test_zero_solution_zero_resultants(self):
        patch = flat_patch()
        for kind in ("cs", "cas"):
            sol = SolutionField(patch, np.zeros((9, 3)), kind, MAT)
            p = sample(sol, [(0.3, 0.3)])
            assert np.all(p["n"] == 0.0) and np.all(p["u"] == 0.0)
            assert p["m"][0, 0] == 0.0 and p["neff"][0, 0] == 0.0

    def test_uniform_stretch_constant_membrane_force(self):
        patch = flat_patch()
        alpha = 1e-3
        U = np.array([[alpha * q[0], 0.0, 0.0]
                      for q in patch.surface.ctrl.reshape(-1, 3)])
        sol = SolutionField(patch, U, "cs", MAT)
        expect = MAT.membrane_stiffness * alpha  # nhat11 = E t e11 / (1 - nu^2)
        p = sample(sol, [(0.1, 0.9), (0.5, 0.5)])
        assert np.all(np.abs(p["n"][:, 0] - expect) < 1e-12 * expect)
        assert np.all(np.abs(p["m"][:, 0]) < 1e-12 * expect)
        assert np.all(np.abs(p["neff"][:, 0] - expect) < 1e-12 * expect)

    def test_nan_point_raises_domain_error(self):
        sol = SolutionField(flat_patch(), np.zeros((9, 3)), "cs", MAT)
        with pytest.raises(DomainError):
            sample(sol, [(float("nan"), 0.5)])

    def test_cas_membrane_force_continuous_across_edges(self):
        """Corner-interpolated strains give C0 membrane forces for any U."""
        surface = make_uniform(ALL_SURFACES["hemisphere"](), 4, 4)
        patch = Patch(surface)
        rng = np.random.default_rng(21)
        U = rng.standard_normal((patch.n_cp, 3)) * 1e-3
        sol = SolutionField(patch, U, "cas", MAT)
        edge_u = 0.5  # interior knot line
        for t2 in (0.1, 0.55, 0.9):
            eids = patch.locate([(edge_u - 1e-9, t2), (edge_u + 1e-9, t2)])
            nl, nr = sample(sol, [(edge_u, t2)] * 2, eids)["n"]
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
        err, = l2_resultant_error(sol, (lambda pos: np.full(pos.shape[:-1], expect),),
                                  ("n11",))
        assert err < 1e-12

    def test_zero_solution_gives_one(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        err, = l2_resultant_error(sol, (lambda pos: np.ones(pos.shape[:-1]),), ("n11",))
        assert abs(err - 1.0) < 1e-14

    def test_zero_norm_field_raises(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        with pytest.raises(ValueError):
            l2_resultant_error(sol, (lambda pos: np.zeros(pos.shape[:-1]),), ("n11",))

    def test_unknown_component_raises(self):
        patch = flat_patch()
        sol = SolutionField(patch, np.zeros((9, 3)), "cs", MAT)
        with pytest.raises(ValueError):
            l2_resultant_error(sol, (lambda pos: np.ones(pos.shape[:-1]),), ("n22",))

    def test_tiny_field_gives_the_unscaled_error(self):
        """Solution and exact field scaled by 2^-600 (their squares underflow)
        give the unscaled error bit for bit."""
        case, sol, _ = solved_case("strip", 1e2, (8, 1), "cas")
        exact = case.analytic["n11"]
        tiny = SolutionField(sol.patch, np.ldexp(sol.U, -600), "cas", sol.mat)
        assert (l2_resultant_error(tiny, (lambda r: np.ldexp(exact(r), -600),), ("n11",))
                == l2_resultant_error(sol, (exact,), ("n11",)))

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_tuple_matches_single_components(self, kind):
        """One pass over several components gives each one-component call's error."""
        case, sol, _ = solved_case("strip", 1e2, (8, 1), kind)
        names = ("n11", "m11", "neff11")
        fields = tuple(case.analytic[w] for w in names)
        errors = l2_resultant_error(sol, fields, names)
        assert isinstance(errors, tuple) and len(errors) == 3
        assert errors == tuple(l2_resultant_error(sol, (f,), (w,))[0]
                               for f, w in zip(fields, names))
        with pytest.raises(ValueError):
            l2_resultant_error(sol, fields[:2], names)


class TestFieldSampler:
    def test_format_and_row_count(self, tmp_path):
        case, sol, _ = solved_case("strip", 1e2, (8, 1), "cas")
        write_field(sol, tmp_path / "field.dat",
                    {"benchmark": "strip", "element": "cas", "mesh": "8x1",
                     "slenderness": "100"}, density=6)
        text = (tmp_path / "field.dat").read_text()
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

    def test_rows_format_each_value_as_17_digits(self, monkeypatch, tmp_path):
        """The rows hold the bytes of format(v, ".17g") per value, joined
        by single spaces, for signed zeros, subnormals and huge values too."""
        special = [0.0, -0.0, 5e-324, -1.5e-310, 1e300, -1e300, 1.0 / 3.0,
                   -2.5, 123456.789, np.pi, 1e-5, 7.0]
        table = np.resize(special, (9, 15))
        table[:, 12:] = np.roll(table[:, 12:], 1, axis=0)  # neff columns differ

        def fake_sample(sol, theta):
            rows = table[:len(theta)]
            return {"r": rows[:, :3], "u": rows[:, 3:6], "n": rows[:, 6:9],
                    "m": rows[:, 9:12], "neff": rows[:, 12:15]}

        monkeypatch.setattr(fields, "sample", fake_sample)
        patch = flat_patch()
        write_field(SolutionField(patch, np.zeros((patch.n_cp, 3)), "cs", MAT),
                    tmp_path / "field.dat", {"mesh": "1x1"}, density=3)
        t = np.linspace(0.0, 1.0, 3)
        expect = ("# mesh: 1x1\n# columns: t1 t2 x y z ux uy uz n11 n22 n12 "
                  "m11 m22 m12 neff11\n")
        for i, (t1, t2) in enumerate((a, b) for a in t for b in t):
            row = (t1, t2, *table[i, :13])
            expect += " ".join(format(v, ".17g") for v in row) + "\n"
        assert (tmp_path / "field.dat").read_bytes() == expect.encode("ascii")
        assert b" -0 " in (tmp_path / "field.dat").read_bytes()

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_rows_match_point_queries(self, kind, tmp_path):
        """Each row equals a one-point ``sample`` at its (t1, t2), with the
        position from ``surface_eval``.

        At density 5 on a 2x2 mesh the samples with t = 0.5 lie on the
        interior knot lines, where the bending moments jump between
        elements, so each row depends on which element owns its point.
        """
        patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 2, 2))
        U = np.random.default_rng(17).standard_normal((patch.n_cp, 3)) * 1e-3
        sol = SolutionField(patch, U, kind, MAT)
        write_field(sol, tmp_path / "field.dat", {}, density=5)
        rows = np.loadtxt(tmp_path / "field.dat")
        assert rows.shape == (25, 15)
        expect = []
        for t1, t2 in rows[:, :2]:
            r, = surface_eval(patch.surface, t1, t2, order=0)
            p = sample(sol, [(t1, t2)])
            expect.append([t1, t2, *r, *p["u"][0], *p["n"][0], *p["m"][0],
                           p["neff"][0, 0]])
        expect = np.array(expect)
        scale = np.abs(expect).max(axis=0)
        assert np.all(np.abs(rows - expect) <= 1e-12 * scale)

        # the owner matters: the element below the knot line t1 = 0.5 gives
        # other moments at the same points
        on_line = rows[rows[:, 0] == 0.5]
        below = patch.locate(np.stack([np.full(len(on_line), 0.25), on_line[:, 1]], axis=-1))
        m_below = sample(sol, on_line[:, :2], below)["m"]
        jump = np.abs(m_below[:, 0] - on_line[:, 11]).max()
        assert jump > 1e-6 * scale[11]
