"""Quadrature, element stiffness (cs/cas), loads, constraints, assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import ALL_SURFACES
import klshell.solver as solver
from klshell import (DomainError, KnotVector, NurbsSurface, Patch, ShellMaterial,
                     SingularGeometryError, apply_constraints, assemble,
                     gauss_rule, load_area, load_edge_line, load_point,
                     make_uniform, solve_spd, tensor_rule)
from klshell.cases import build_loads, make_case
from klshell.elements import (_corner_membrane_rows, _corner_weights, _dofs,
                              _membrane_strain_rows, _rule_eval, _stiffness_batch,
                              edge_lines, element_stiffness, fix_cps)

KV2 = KnotVector([0, 0, 0, 1, 1, 1], 2)
MAT = ShellMaterial(E=200.0, nu=0.3, t=0.05)


def flat_patch(a=1.0, b=1.0):
    ctrl = np.zeros((3, 3, 3))
    for i, x in enumerate((0.0, a / 2, a)):
        for j, y in enumerate((0.0, b / 2, b)):
            ctrl[i, j] = [x, y, 0.0]
    return NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3)))


class TestQuadrature:
    def test_two_point_rule(self):
        rule = gauss_rule(2)
        assert np.allclose(sorted(set(rule.points[:, 0])), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(rule.weights, 1.0)
        assert abs(rule.weights.sum() - 4.0) < 1e-14

    def test_three_point_rule(self):
        rule = gauss_rule(3)
        x = np.sort(np.unique(rule.points[:, 0]))
        assert np.allclose(x, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
        w1 = sorted(set(np.round(rule.weights, 14)))
        assert abs(rule.weights.sum() - 4.0) < 1e-14

    def test_exactness_2pt_on_xi2eta2(self):
        rule = gauss_rule(2)
        val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
        assert abs(val - 4.0 / 9.0) < 1e-14

    def test_rules_are_built_once_and_read_only(self):
        rule = tensor_rule(3)
        assert gauss_rule(3) is rule and tensor_rule(5) is tensor_rule(5)
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            gauss_rule(4)

    def test_fine_rule_available(self):
        rule = tensor_rule(5)
        assert rule.n == 25
        assert abs(rule.weights.sum() - 4.0) < 1e-13


class TestElementStiffnessCS:
    def test_symmetric(self):
        patch = Patch(ALL_SURFACES["scordelis"]())
        k = element_stiffness(patch, 0, MAT, gauss_rule(3), "cs")
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()

    def test_rigid_translation_annihilated(self):
        patch = Patch(ALL_SURFACES["hemisphere"]())
        k = element_stiffness(patch, 0, MAT, gauss_rule(3), "cs")
        T = np.tile([1.0, -2.0, 0.5], 9)
        assert np.abs(k @ T).max() <= 1e-10 * np.abs(k).max() * np.abs(T).max()

    def test_thickness_scaling(self):
        patch = Patch(ALL_SURFACES["strip"]())
        rule = gauss_rule(3)
        m1 = ShellMaterial(E=100.0, nu=0.2, t=0.04)
        m2 = ShellMaterial(E=100.0, nu=0.2, t=0.08)
        ke1, kk1, _ = _stiffness_batch(patch, [0], m1, rule, "cs")
        ke2, kk2, _ = _stiffness_batch(patch, [0], m2, rule, "cs")
        assert np.allclose(ke2, 2.0 * ke1, rtol=1e-12)
        assert np.allclose(kk2, 8.0 * kk1, rtol=1e-12)

    def test_flat_membrane_matches_plane_stress_oracle(self):
        """Independent plane-stress stiffness on the same quadratic basis."""
        patch = Patch(flat_patch())
        rule = gauss_rule(3)
        k_eps, _, _ = _stiffness_batch(patch, [0], MAT, rule, "cs")
        k_eps = k_eps[0]

        # oracle: direct Bernstein/Gauss integration of B' D B in x-space
        def bern(t):
            return np.array([(1 - t) ** 2, 2 * t * (1 - t), t ** 2])

        def dbern(t):
            return np.array([-2 * (1 - t), 2 - 4 * t, 2 * t])

        D = (MAT.E * MAT.t / (1 - MAT.nu ** 2)) * np.array(
            [[1, MAT.nu, 0], [MAT.nu, 1, 0], [0, 0, (1 - MAT.nu) / 2]])
        x1, w1 = np.polynomial.legendre.leggauss(3)
        k_oracle = np.zeros((27, 27))
        for xa, wa in zip(x1, w1):
            for xb, wb in zip(x1, w1):
                t1, t2 = (xa + 1) / 2, (xb + 1) / 2
                N1 = np.outer(dbern(t1), bern(t2)).ravel()
                N2 = np.outer(bern(t1), dbern(t2)).ravel()
                B = np.zeros((3, 27))
                for A in range(9):
                    B[0, 3 * A + 0] = N1[A]
                    B[1, 3 * A + 1] = N2[A]
                    B[2, 3 * A + 0] = N2[A]
                    B[2, 3 * A + 1] = N1[A]
                k_oracle += (wa * wb / 4.0) * B.T @ D @ B
        assert np.abs(k_eps - k_oracle).max() <= 1e-12 * np.abs(k_oracle).max()

    def test_degenerate_element_named_once(self):
        ctrl = np.zeros((3, 3, 3))  # all control points coincide
        patch = Patch(make_uniform(NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3))), 2, 2))
        with pytest.raises(SingularGeometryError) as exc:
            element_stiffness(patch, 3, MAT, gauss_rule(3), "cs")
        message = str(exc.value)
        assert message.count("element") == 1 and "3" in message


class TestElementStiffnessCAS:
    def test_corner_reproduction_identity(self):
        """Assumed rows at the element corners equal the compatible rows."""
        patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 2, 2))
        eids = [0, 3]
        Bc = _corner_membrane_rows(patch, eids)
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        L = _corner_weights(corners)
        assumed_at_corners = np.einsum("ql,elai->eqai", L, Bc)
        assert np.abs(assumed_at_corners - Bc).max() < 1e-14 * np.abs(Bc).max()

    def test_symmetric_and_rigid_annihilation(self):
        patch = Patch(ALL_SURFACES["scordelis"]())
        k = element_stiffness(patch, 0, MAT, gauss_rule(3), "cas")
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()
        T = np.tile([0.2, 1.0, -0.7], 9)
        assert np.abs(k @ T).max() <= 1e-10 * np.abs(k).max()

    def test_requires_quadratic_patch(self):
        kv1 = KnotVector([0, 0, 1, 1], 1)
        ctrl = np.zeros((2, 2, 3))
        ctrl[1, :, 0] = 1.0
        ctrl[:, 1, 1] = 1.0
        patch = Patch(NurbsSurface(kv1, kv1, ctrl, np.ones((2, 2))))
        with pytest.raises(ValueError):
            element_stiffness(patch, 0, MAT, gauss_rule(2), "cas")

    def test_assumed_strain_continuity_across_edges(self):
        """Assumed membrane strain rows agree across shared element edges."""
        patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 4, 4))
        n_dof = patch.n_dof
        # elements 0 and 4 share the edge u = 1/4 (v in [0, 1/4])
        e_left, e_right = 0, 4
        Bc = _corner_membrane_rows(patch, [e_left, e_right])
        for eta in (-1.0, -0.3, 0.4, 1.0):
            rows = {}
            for k, (eid, xi) in enumerate(((e_left, 1.0), (e_right, -1.0))):
                L = _corner_weights(np.array([[xi, eta]]))
                local = np.einsum("ql,lai->qai", L, Bc[k])[0]
                full = np.zeros((3, n_dof))
                full[:, patch.element_dofs(eid)] = local
                rows[eid] = full
            scale = max(np.abs(rows[e_left]).max(), 1e-30)
            assert np.abs(rows[e_left] - rows[e_right]).max() <= 1e-12 * scale


class TestAssembly:
    def test_single_element_padding(self):
        patch = Patch(flat_patch())
        rule = gauss_rule(3)
        K = assemble(patch, MAT, rule, "cs")[0].toarray()
        k = element_stiffness(patch, 0, MAT, rule, "cs")
        dofs = patch.element_dofs(0)
        assert np.allclose(K[np.ix_(dofs, dofs)], k, atol=1e-14 * np.abs(k).max())

    def test_sparsity_pattern_cs_equals_cas(self):
        patch = Patch(make_uniform(ALL_SURFACES["scordelis"](), 3, 3))
        Kcs, _ = assemble(patch, MAT, gauss_rule(3), "cs")
        Kcas, _ = assemble(patch, MAT, gauss_rule(3), "cas")
        assert np.array_equal(Kcs.indptr, Kcas.indptr)
        assert np.array_equal(Kcs.indices, Kcas.indices)
        # both equal the support-overlap pattern: dofs couple iff some
        # element supports both control points
        n = patch.n_dof
        overlap = np.zeros((n, n), dtype=bool)
        for e in range(patch.n_elements):
            dofs = patch.element_dofs(e)
            overlap[np.ix_(dofs, dofs)] = True
        pattern = np.zeros((n, n), dtype=bool)
        coo = Kcas.tocoo()
        pattern[coo.row, coo.col] = True
        assert np.array_equal(pattern, overlap)

    def test_global_symmetry(self):
        patch = Patch(make_uniform(ALL_SURFACES["hemisphere"](), 3, 3))
        K, _ = assemble(patch, MAT, gauss_rule(3), "cas")
        diff = abs(K - K.T)
        assert diff.max() <= 1e-10 * abs(K).max()

    def test_bitwise_deterministic(self):
        patch = Patch(make_uniform(ALL_SURFACES["strip"](), 4, 2))
        K1, _ = assemble(patch, MAT, gauss_rule(2), "cas")
        K2, _ = assemble(patch, MAT, gauss_rule(2), "cas")
        assert np.array_equal(K1.data, K2.data)
        assert np.array_equal(K1.indices, K2.indices)
        assert np.array_equal(K1.indptr, K2.indptr)

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("strip", (4, 1)), ("strip", (8, 1)), ("hemisphere", (3, 3)),
        ("hypar", (4, 2)), ("scordelis", (3, 5)),
    ])
    def test_stencil_scatter_matches_dense_oracle(self, case_id, mesh, kind, quad):
        """The stencil scatter against element matrices summed densely.

        One element row (the strips) clips the stencil in v."""
        case = make_case(case_id)
        patch = Patch(make_uniform(case.surface, *mesh))
        rule = gauss_rule(quad)
        K, _ = assemble(patch, case.material, rule, kind)
        n = patch.n_dof
        dense, shared = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
        for e in range(patch.n_elements):
            block = np.ix_(patch.element_dofs(e), patch.element_dofs(e))
            np.add.at(dense, block, element_stiffness(patch, e, case.material, rule, kind))
            shared[block] = True

        assert np.abs(K.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
        stored = np.zeros((n, n), dtype=bool)
        coo = K.tocoo()
        stored[coo.row, coo.col] = True
        assert np.array_equal(stored, shared)

        assert K.has_canonical_format
        assert (K != K.T).nnz == 0


def distorted_flat_net():
    """A flat, distorted, rational 3x3 control net in the plane z = 0."""
    ctrl = np.zeros((3, 3, 3))
    for i, x in enumerate((0.0, 0.5, 1.0)):
        for j, y in enumerate((0.0, 0.5, 1.0)):
            ctrl[i, j] = [x + 0.1 * y, y, 0.0]
    ctrl[1, 1, :2] += (0.08, -0.05)
    w = np.array([[1.0, 0.9, 1.0], [1.1, 1.2, 0.9], [1.0, 0.95, 1.0]])
    return NurbsSurface(KV2, KV2, ctrl, w)


class TestMembranePatch:
    """A linear in-plane field U_A = G x_A on a distorted rational flat patch.

    NURBS reproduce linear fields exactly, so the compatible covariant
    strains are eps_ab = sym(a_a . G a_b), with 2 eps_12 in the Voigt shear
    row.  cs reproduces them; cas does not on a distorted patch: bilinear
    corner interpolation of covariant components is exact only where they
    are bilinear in the parent coordinates, as on the affine patch of
    criterion 8g.  Its error falls at about the O(h^2) rate: 6.8e-2, 2.1e-2,
    6.0e-3, 1.7e-3 from 3x3 to 24x24 elements.
    """

    G = np.array([[0.3, -0.2, 0.0], [0.5, 0.1, 0.0], [0.0, 0.0, 0.0]])

    def strain_error(self, n, kind):
        """Largest strain error at the 3x3 points over the largest strain."""
        patch = Patch(make_uniform(distorted_flat_net(), n, n))
        U = (patch.surface.ctrl.reshape(-1, 3) @ self.G.T).ravel()
        rule = gauss_rule(3)
        eids = np.arange(patch.n_elements)
        ev = _rule_eval(patch, eids, rule)
        rows = _membrane_strain_rows(patch, eids, ev, rule.points, kind)
        eps = np.einsum("eqai,ei->eqa", rows, U[_dofs(ev["conn"])])
        a1, a2 = ev["r1"], ev["r2"]

        def form(p, q):
            return np.einsum("eqi,ij,eqj->eq", p, self.G, q)

        exact = np.stack([form(a1, a1), form(a2, a2),
                          form(a1, a2) + form(a2, a1)], axis=-1)
        return np.abs(eps - exact).max() / np.abs(exact).max()

    @pytest.mark.parametrize("n", [3, 6])
    def test_cs_reproduces_linear_field(self, n):
        assert self.strain_error(n, "cs") <= 1e-12

    def test_cas_error_converges(self):
        errors = [self.strain_error(n, "cas") for n in (3, 6, 12, 24)]
        assert errors[0] > 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine > 2.5


def area_load_by_elements(patch, rule, f):
    """The consistent area load summed element by element, sum_q N f dA."""
    F = np.zeros(patch.n_dof)
    for e in range(patch.n_elements):
        ev = _rule_eval(patch, [e], rule)
        F[patch.element_dofs(e)] += np.einsum("qA,c,q->Ac", ev["N"][0], f,
                                              ev["dA"][0]).ravel()
    return F


class TestLoads:
    def test_zero_area_load(self):
        patch = Patch(flat_patch())
        _, area = assemble(patch, MAT, gauss_rule(3), "cs")
        F = load_area(area, np.zeros(3))
        assert F.shape == (patch.n_dof,)
        assert np.all(F == 0.0)

    def test_unit_square_total_load(self):
        patch = Patch(flat_patch())
        _, area = assemble(patch, MAT, gauss_rule(3), "cs")
        assert abs(area.sum() - 1.0) < 1e-12
        F = load_area(area, np.array([0.0, 0.0, 1.0]))
        assert abs(F[2::3].sum() - 1.0) < 1e-12

    def test_roof_total_vertical_load(self):
        case_surface = make_uniform(ALL_SURFACES["scordelis"](), 4, 4)
        patch = Patch(case_surface)
        _, area_vec = assemble(patch, MAT, gauss_rule(3), "cas")
        F = load_area(area_vec, np.array([0.0, 0.0, -90.0]))
        area = (2 * np.radians(40.0)) * 25.0 * 50.0  # exact midsurface area
        assert abs(area_vec.sum() - area) < 1e-6 * area
        assert abs(F[2::3].sum() + 90.0 * area) < 1e-6 * 90.0 * area

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("case_id,mesh", [("hypar", (8, 4)), ("scordelis", (4, 4))])
    def test_area_vector_matches_element_sums(self, case_id, mesh, quad):
        """area (x) f is the per-element sum of N f dA over the rule's points."""
        case = make_case(case_id)
        patch = Patch(make_uniform(case.surface, *mesh))
        f = np.array([0.3, -1.2, -90.0])
        _, area = assemble(patch, case.material, gauss_rule(quad), "cas")
        F = area_load_by_elements(patch, gauss_rule(quad), f)
        assert np.abs(load_area(area, f) - F).max() <= 1e-15 * np.abs(F).max()

    def test_zero_edge_load(self):
        patch = Patch(flat_patch())
        F = load_edge_line(patch, "u1", 3, np.zeros(3))
        assert np.all(F == 0.0)

    @pytest.mark.parametrize("edge,length", [("u0", 3.0), ("u1", 3.0),
                                             ("v0", 2.0), ("v1", 2.0)])
    def test_straight_edge_total(self, edge, length):
        """The total is q times the edge length, and only the control points
        of that edge are loaded."""
        patch = Patch(make_uniform(flat_patch(a=2.0, b=3.0), 3, 2))
        q = np.array([0.5, 0.0, -1.0])
        F = load_edge_line(patch, edge, 3, q)
        assert abs(F[0::3].sum() - q[0] * length) < 1e-12
        assert abs(F[2::3].sum() - q[2] * length) < 1e-12
        on_edge = np.zeros(patch.n_cp, dtype=bool)
        on_edge[edge_lines(edge, patch.surface.shape)] = True
        assert np.array_equal(np.any(F.reshape(-1, 3) != 0.0, axis=1), on_edge)

    def test_strip_free_end_total(self):
        t = 0.1
        patch = Patch(make_uniform(ALL_SURFACES["strip"](), 8, 1))
        F = load_edge_line(patch, "u1", 3, np.array([-0.1 * t ** 3, 0.0, 0.0]))
        assert abs(F[0::3].sum() + 0.1 * t ** 3) < 1e-14

    def test_non_boundary_edge_raises(self):
        patch = Patch(flat_patch())
        with pytest.raises(ValueError):
            load_edge_line(patch, "mid", 3, np.zeros(3))

    def test_point_load_at_corner(self):
        patch = Patch(flat_patch())
        P = np.array([1.0, 2.0, 3.0])
        F = load_point(patch, (0.0, 0.0), P)
        g = patch.cp_index(0, 0)
        assert np.allclose(F[3 * g: 3 * g + 3], P, atol=1e-14)
        assert abs(F.sum() - P.sum()) < 1e-14

    def test_point_loads_add_in_order(self):
        """Several points in one call give the sum of one call per point."""
        patch = Patch(make_uniform(flat_patch(), 3, 2))
        theta = [(0.0, 0.0), (0.3, 0.4), (1.0, 0.0), (0.3, 0.45)]
        P = [(1.0, 2.0, 3.0), (-0.5, 0.25, 1.0), (0.0, 4.0, 0.0), (0.1, 0.2, 0.3)]
        one_by_one = np.zeros(patch.n_dof)
        for t, p in zip(theta, P):
            one_by_one += load_point(patch, t, p)
        assert np.array_equal(load_point(patch, theta, P), one_by_one)

    def test_nan_point_raises(self):
        patch = Patch(make_uniform(flat_patch(), 3, 2))
        with pytest.raises(DomainError):
            load_point(patch, [(float("nan"), 0.5)], [(1.0, 0.0, 0.0)])

    def test_zero_point_load(self):
        patch = Patch(flat_patch())
        F = load_point(patch, (0.3, 0.4), np.zeros(3))
        assert np.all(F == 0.0)


def constrained(case_id, mesh, kind, quad=3):
    """The assembled K and F of a benchmark case and their reduced system."""
    case = make_case(case_id)
    patch = Patch(make_uniform(case.surface, *mesh))
    K, area = assemble(patch, case.material, gauss_rule(quad), kind)
    F = build_loads(case, patch, quad, area)
    return K, F, apply_constraints(K, F, *case.constraints(patch))


class TestConstraints:
    def test_no_constraints_identity(self):
        patch = Patch(flat_patch())
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        red = apply_constraints(K, np.zeros(patch.n_dof), [])
        assert len(red.free) == patch.n_dof
        U = red.expand(np.ones(len(red.free)))
        assert np.all(U == 1.0)

    def test_fixed_count(self):
        patch = Patch(flat_patch())
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        red = apply_constraints(K, np.zeros(patch.n_dof),
                                fix_cps(edge_lines("u0", patch.surface.shape)))
        assert len(red.free) == 27 - 9

    def test_all_fixed_raises(self):
        patch = Patch(flat_patch())
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        with pytest.raises(ValueError):
            apply_constraints(K, np.zeros(patch.n_dof), np.arange(patch.n_dof))

    def test_multipoint_tie(self):
        """A two-dof tie U_a = U_b is satisfied exactly by the expansion."""
        patch = Patch(flat_patch())
        K, area = assemble(patch, MAT, gauss_rule(3), "cs")
        row = (np.array([13, 16]), np.array([1.0, -1.0]))
        F = load_area(area, np.array([0.0, 1.0, 0.0]))
        red = apply_constraints(K, F, fix_cps(edge_lines("u0", patch.surface.shape)), (row,))
        U = red.expand(np.asarray(solve_spd(red.K, red.F).U, float))
        assert abs(U[13] - U[16]) < 1e-12 * max(1.0, abs(U).max())

    def test_work_balance(self):
        case = make_case("scordelis", slenderness=1e2)
        surface = make_uniform(case.surface, 8, 8)
        patch = Patch(surface)
        K, area = assemble(patch, case.material, gauss_rule(3), "cas")
        red = apply_constraints(K, build_loads(case, patch, 3, area), *case.constraints(patch))
        U = np.asarray(solve_spd(red.K, red.F).U, float)
        lhs = U @ red.F
        rhs = U @ (red.K @ U)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_multipoint_row_lengths_must_match(self):
        K = sp.identity(27, format="csr")
        with pytest.raises(ValueError):
            apply_constraints(K, np.zeros(27), [],
                              ((np.array([13, 16, 17]), np.array([1.0, -1.0])),))

    @pytest.mark.parametrize("dof", [10 ** 6, -1])
    def test_multipoint_dof_out_of_range(self, dof):
        patch = Patch(flat_patch())
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        row = (np.array([13, dof]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="out of range"):
            apply_constraints(K, np.zeros(patch.n_dof), [], (row,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_coefficient_raises(self, bad, at):
        """A NaN or inf coefficient is refused by name, not dropped from
        the tie, which would leave a different condition in T."""
        coeffs = np.array([2.0, 1.0, 1.0])
        coeffs[at] = bad
        rows = [(np.array([4, 5]), np.array([1.0, -1.0])), (np.array([1, 2, 3]), coeffs)]
        with pytest.raises(ValueError, match="row 1"):
            apply_constraints(sp.identity(6, format="csr"), np.zeros(6), [0], rows)

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("case_id", ["strip", "hemisphere", "scordelis", "hypar"])
    def test_reduced_band_within_the_band_of_k(self, case_id, n):
        """Tie slaves sit on the edge row, so eliminating the supports never
        widens the band the banded Cholesky factors."""
        K, _, red = constrained(case_id, (n, n), "cas")

        def half_band(A):
            upper = sp.triu(A).tocoo()
            return int((upper.col - upper.row).max())

        assert half_band(red.K) <= half_band(K)

    def test_fix_cps_rejects_components_outside_xyz(self):
        with pytest.raises(ValueError):
            fix_cps([0], components=(3,))

    @pytest.mark.parametrize("case_id,mesh,dropped", [
        ("strip", (4, 1), 0), ("hemisphere", (3, 3), 0), ("scordelis", (3, 5), 0),
        ("hypar", (4, 2), 1), ("hypar", (32, 16), 1),
    ])
    def test_basis_satisfies_every_tie(self, case_id, mesh, dropped):
        """T satisfies each multipoint row, is zero on fixed dofs and the
        identity on free ones; on the hypar the rotation rows of the clamp
        and of the symmetry edge meet at a corner, where one reduces to
        nothing and is dropped."""
        case = make_case(case_id)
        patch = Patch(make_uniform(case.surface, *mesh))
        fixed, rows = case.constraints(patch)
        n = patch.n_dof
        red = apply_constraints(sp.identity(n, format="csr"), np.zeros(n), fixed, rows)
        T = red.T
        for dofs, coeffs in rows:
            tie = T[dofs].T @ coeffs
            assert np.abs(tie).max() <= 1e-13 * np.abs(coeffs).max()
        assert T[np.unique(fixed)].nnz == 0
        Tf = T[red.free].tocoo()
        assert Tf.nnz == len(red.free)
        assert np.array_equal(Tf.row, Tf.col) and np.all(Tf.data == 1.0)
        assert len(red.free) == n - len(np.unique(fixed)) - len(rows) + dropped

    def test_chained_rows_are_substituted_into_masters(self):
        """A row that reuses a slave is written in masters, a later slave is
        substituted out of earlier expressions, and a row implied by earlier
        ones or on fixed dofs only is dropped."""
        rows = [(np.array(d), np.array(c)) for d, c in [
            ([5, 6], [1.0, 0.5]), ([6, 7], [2.0, 1.0]), ([5, 7], [1.0, -0.25]),
            ([0], [3.0])]]
        red = apply_constraints(sp.identity(10, format="csr"), np.zeros(10), [0], rows)
        assert list(red.free) == [1, 2, 3, 4, 7, 8, 9]
        e7 = np.eye(7)[4]
        assert np.array_equal(red.T[5].toarray()[0], 0.25 * e7)
        assert np.array_equal(red.T[6].toarray()[0], -0.5 * e7)
        assert red.T.nnz == 9

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("strip", (4, 1)), ("hemisphere", (3, 3)), ("scordelis", (3, 5)), ("hypar", (4, 2)),
    ])
    def test_reduced_matrix_is_canonical_and_symmetric(self, monkeypatch, case_id, mesh, kind):
        """The reduced K stores no zeros, is exactly symmetric, and the band
        read off it by mask equals the band of its upper triangle."""
        _, _, red = constrained(case_id, mesh, kind)
        K, n = red.K, red.K.shape[0]
        assert K.has_canonical_format
        assert np.all(K.data != 0.0)
        assert (K != K.T).nnz == 0
        upper = sp.triu(K).tocoo()
        bw = int((upper.col - upper.row).max())
        band = np.zeros((bw + 1, n))
        band[bw + upper.row - upper.col, upper.col] = upper.data
        monkeypatch.setattr(solver, "_BAND_MIN_WORK", 0)
        assert np.array_equal(solver._upper_band(K), band)

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    def test_fixed_dofs_alone_select_the_free_block(self, kind):
        """Scordelis-Lo fixes dofs and has no multipoint rows: T selects."""
        K, F, red = constrained("scordelis", (3, 5), kind)
        free = red.free
        Kff = K[free][:, free]
        Kff.eliminate_zeros()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(red.K, name), getattr(Kff, name))
        assert np.array_equal(red.F, F[free])
        u = np.arange(1.0, len(free) + 1.0)
        U = red.expand(u)
        assert np.array_equal(U[free], u)
        assert np.count_nonzero(U) == len(free)


def _zero_modes(K):
    """Eigenvalues below 1e-10 lambda_max of the diagonally scaled matrix K."""
    d = 1.0 / np.sqrt(np.diag(K))
    lam = np.linalg.eigvalsh(K * d[:, None] * d[None, :])
    return int(np.sum(lam < 1e-10 * lam.max()))


class TestZeroEnergyModes:
    """cs patches have only the six rigid-body modes.  cas adds one
    checkerboard mode along the generator of a cylindrical patch (the strip
    and the Scordelis-Lo roof); the benchmark constraints remove the rigid
    modes but keep that one."""

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("strip", (4, 1)), ("strip", (8, 2)),
        ("scordelis", (2, 2)), ("scordelis", (3, 5)),
        ("hemisphere", (3, 3)), ("hypar", (4, 2)),
    ])
    def test_counts(self, case_id, mesh, kind, quad):
        case = make_case(case_id)
        patch = Patch(make_uniform(case.surface, *mesh))
        K, _ = assemble(patch, case.material, gauss_rule(quad), kind)
        generator = int(kind == "cas" and case_id in ("strip", "scordelis"))
        assert _zero_modes(K.toarray()) == 6 + generator
        red = apply_constraints(K, np.zeros(patch.n_dof), *case.constraints(patch))
        assert _zero_modes(red.K.toarray()) == generator

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("case_id,mesh", [("strip", (8, 2)), ("scordelis", (3, 5))])
    def test_generator_mode_vanishes_on_the_boundary(self, case_id, mesh, quad):
        """The constrained cas null vector is zero on every boundary row of
        control points, to the accuracy of a computed eigenvector.

        An eigenvector with gap g = lambda_1 / lambda_max to the rest of the
        spectrum is accurate to about eps / g (1.2e-8 on the strip, 3e-10 on
        the roof).  The boundary entries measured 4.6e-10 to 1.5e-9 of the
        largest on the strip and 3.7e-12 to 1.1e-11 on the roof, 8x and 27x
        below that bound."""
        case = make_case(case_id)
        patch = Patch(make_uniform(case.surface, *mesh))
        red = apply_constraints(assemble(patch, case.material, gauss_rule(quad), "cas")[0],
                                np.zeros(patch.n_dof), *case.constraints(patch))
        K = red.K.toarray()
        d = 1.0 / np.sqrt(np.diag(K))
        lam, V = np.linalg.eigh(K * d[:, None] * d[None, :])
        U = red.expand(d * V[:, 0]).reshape(-1, 3)
        boundary = np.concatenate([edge_lines(e, patch.surface.shape)
                                   for e in ("u0", "u1", "v0", "v1")])
        bound = np.finfo(float).eps * lam[-1] / lam[1]
        assert np.abs(U[boundary]).max() <= bound * np.abs(U).max()
