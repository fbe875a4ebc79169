"""Surface frames, strain operators, and resultant laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SURFACES, basis_at
from klshell import KnotVector, NurbsSurface, ShellMaterial, make_uniform, surface_eval
from klshell.shell import (bending_rows, cartesian_components,
                           effective_membrane_forces, frame_arrays, membrane_rows,
                           resultant_frame, resultant_law)

KV2 = KnotVector([0, 0, 0, 1, 1, 1], 2)


def flat_patch(a=1.0, b=1.0):
    ctrl = np.zeros((3, 3, 3))
    for i, x in enumerate((0.0, a / 2, a)):
        for j, y in enumerate((0.0, b / 2, b)):
            ctrl[i, j] = [x, y, 0.0]
    return NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3)))


def cylinder_patch(R=10.0):
    return ALL_SURFACES["strip"]()


def sphere_patch(R=10.0):
    return ALL_SURFACES["hemisphere"]()


def frame(s, t1, t2):
    f = frame_arrays(*surface_eval(s, t1, t2)[1:])
    return {**f, **resultant_frame(f)}


def rows_apply(rows, U):
    """Contract per-dof strain rows with control displacements (n_cp, 3)."""
    return rows @ U.reshape(-1)


def energy_pairing(eps, n):
    """eps_ab n^ab for (11, 22, 12) component vectors."""
    return eps[0] * n[0] + eps[1] * n[1] + 2 * eps[2] * n[2]


class TestFrames:
    def test_flat_plate(self):
        f = frame(flat_patch(), 0.3, 0.6)
        assert np.allclose(f["a3"], [0, 0, 1], atol=1e-14)
        assert np.allclose(f["b_ab"], 0, atol=1e-14)
        assert abs(f["jac"] - 1.0) < 1e-14

    def test_cylinder_curvature_oracle(self):
        s = cylinder_patch()
        rng = np.random.default_rng(2)
        for t1, t2 in rng.random((20, 2)):
            f = frame(s, t1, t2)
            eig = np.sort(np.linalg.eigvals(f["b_mixed"]).real)
            assert min(abs(eig[0]), abs(eig[1])) < 1e-12
            assert abs(max(abs(eig[0]), abs(eig[1])) - 0.1) < 1e-12

    def test_sphere_curvature_oracle(self):
        s = sphere_patch()
        rng = np.random.default_rng(4)
        for t1, t2 in rng.random((20, 2)):
            f = frame(s, t1, t2)
            eig = np.linalg.eigvals(f["b_mixed"]).real
            assert np.allclose(np.abs(eig), 0.1, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    def test_frame_invariants(self, name):
        s = make_uniform(ALL_SURFACES[name](), 3, 3)
        rng = np.random.default_rng(8)
        for t1, t2 in rng.random((30, 2)):
            f = frame(s, t1, t2)
            a1, a2, a3, e1, e2 = f["a1"], f["a2"], f["a3"], f["e1"], f["e2"]
            assert abs(np.linalg.norm(a3) - 1.0) < 1e-12
            assert abs(a3 @ a1) < 1e-12 * np.linalg.norm(a1)
            assert abs(a3 @ a2) < 1e-12 * np.linalg.norm(a2)
            a_ab = np.stack([a1, a2]) @ np.stack([a1, a2]).T
            assert np.allclose(f["a_inv"] @ a_ab, np.eye(2), atol=1e-12)
            assert abs(e1 @ e2) < 1e-12
            assert abs(np.linalg.norm(e1) - 1) < 1e-12
            assert abs(np.linalg.norm(e2) - 1) < 1e-12
            cross = np.cross(e1, a1)
            assert np.linalg.norm(cross) < 1e-12 * np.linalg.norm(a1)
            b = f["b_ab"]
            assert abs(b[0, 1] - b[1, 0]) < 1e-14 * (1 + abs(b).max())

    def test_degenerate_geometry_raises(self):
        ctrl = np.zeros((3, 3, 3))  # all control points coincide
        s = NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3)))
        from klshell import SingularGeometryError
        with pytest.raises(SingularGeometryError):
            frame(s, 0.5, 0.5)


class TestMembraneOperator:
    def test_rigid_translation_annihilated(self):
        s = cylinder_patch()
        f = frame(s, 0.4, 0.3)
        be = basis_at(s, 0.4, 0.3)
        rows = membrane_rows(be["N1"], be["N2"], f["a1"], f["a2"])
        U = np.tile([0.3, -1.2, 0.7], (9, 1))
        assert np.allclose(rows_apply(rows, U), 0.0, atol=1e-14)

    def test_flat_uniaxial_stretch(self):
        s = flat_patch()
        alpha = 1e-3
        U = np.array([[alpha * q[0], 0, 0] for q in s.ctrl.reshape(-1, 3)])
        f = frame(s, 0.25, 0.75)
        be = basis_at(s, 0.25, 0.75)
        eps = rows_apply(membrane_rows(be["N1"], be["N2"], f["a1"], f["a2"]), U)
        assert np.allclose(eps, [alpha, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("name", ["strip", "hemisphere"])
    def test_rigid_rotation_annihilated(self, name):
        # affine fields are reproduced exactly with U_A = field(Q_A)
        s = make_uniform(ALL_SURFACES[name](), 4, 4)
        omega = np.array([0.2, -0.5, 1.0]) * 1e-3
        U = np.cross(omega, s.ctrl.reshape(-1, 3))
        rng = np.random.default_rng(6)
        scale = np.linalg.norm(omega) * 10.0
        for t1, t2 in rng.random((20, 2)):
            f = frame(s, t1, t2)
            be = basis_at(s, t1, t2)
            rows = membrane_rows(be["N1"], be["N2"], f["a1"], f["a2"])
            eps = rows_apply(rows, U[be["conn"]])
            assert np.all(np.abs(eps) < 1e-10 * scale)

    def test_linearity(self):
        s = cylinder_patch()
        f = frame(s, 0.2, 0.9)
        be = basis_at(s, 0.2, 0.9)
        rows = membrane_rows(be["N1"], be["N2"], f["a1"], f["a2"])
        rng = np.random.default_rng(0)
        U = rng.random((9, 3))
        V = rng.random((9, 3))
        left = rows_apply(rows, 2.0 * U + 3.0 * V)
        right = 2.0 * rows_apply(rows, U) + 3.0 * rows_apply(rows, V)
        assert np.allclose(left, right, rtol=0, atol=1e-14 * np.abs(left).max())


class TestBendingOperator:
    def test_flat_plate_reduces_to_deflection_hessian(self):
        # w(theta) = theta1^2 on the unit flat patch: kappa = (-2, 0, 0)
        s = flat_patch()
        U = np.zeros((9, 3))
        U[:, 2] = np.outer([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]).ravel()
        for t1, t2 in ((0.2, 0.3), (0.7, 0.9)):
            kap = rows_apply(bending_rows({**basis_at(s, t1, t2), **frame(s, t1, t2)}), U)
            assert np.allclose(kap, [-2.0, 0.0, 0.0], atol=1e-13)

    def test_rigid_translation_annihilated(self):
        s = sphere_patch()
        U = np.tile([0.1, 0.2, -0.3], (9, 1))
        kap = rows_apply(bending_rows({**basis_at(s, 0.6, 0.2), **frame(s, 0.6, 0.2)}), U)
        assert np.allclose(kap, 0.0, atol=1e-14)

    def test_rigid_rotation_annihilated_on_cylinder(self):
        s = make_uniform(cylinder_patch(), 4, 2)
        omega = np.array([0.3, 0.1, -0.7]) * 1e-3
        U = np.cross(omega, s.ctrl.reshape(-1, 3))
        scale = np.linalg.norm(omega) * 10.0
        rng = np.random.default_rng(9)
        for t1, t2 in rng.random((20, 2)):
            be = basis_at(s, t1, t2)
            kap = rows_apply(bending_rows({**be, **frame(s, t1, t2)}), U[be["conn"]])
            assert np.all(np.abs(kap) < 1e-9 * scale)


@pytest.mark.parametrize("name", sorted(ALL_SURFACES))
def test_strain_rows_match_finite_differences(name):
    """On the surface with control points ctrl + eps U, the membrane rows give
    d a_ab / 2 and the bending rows -d b_ab (Voigt: 12 doubled), d/d eps by
    central differences; the error is O(eps^2)."""
    s = make_uniform(ALL_SURFACES[name](), 3, 2)
    rng = np.random.default_rng(11)
    U = rng.standard_normal(s.ctrl.shape)
    eps, voigt = 1e-5, np.array([1.0, 1.0, 2.0])

    def forms(sign, t1, t2):
        moved = NurbsSurface(s.kv_u, s.kv_v, s.ctrl + sign * eps * U, s.weights)
        f = frame(moved, t1, t2)
        a_ab = np.stack([f["a1"], f["a2"]]) @ np.stack([f["a1"], f["a2"]]).T
        return (np.array([g[0, 0], g[1, 1], g[0, 1]]) for g in (a_ab, f["b_ab"]))

    for t1, t2 in rng.random((10, 2)):
        be, f = basis_at(s, t1, t2), frame(s, t1, t2)
        (a_p, b_p), (a_m, b_m) = forms(1, t1, t2), forms(-1, t1, t2)
        Uloc = U.reshape(-1, 3)[be["conn"]]
        checks = ((rows_apply(membrane_rows(be["N1"], be["N2"], f["a1"], f["a2"]), Uloc),
                   0.5 * voigt * (a_p - a_m) / (2 * eps)),
                  (rows_apply(bending_rows({**be, **f}), Uloc), -voigt * (b_p - b_m) / (2 * eps)))
        for got, fd in checks:
            assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max()


class TestLaws:
    MAT = ShellMaterial(E=200.0, nu=0.0, t=0.05)

    def test_flat_uniaxial(self):
        f = frame(flat_patch(), 0.5, 0.5)
        n = resultant_law(np.array([2e-3, 0, 0]), f["a_inv"],
                          self.MAT.membrane_stiffness, self.MAT.nu)
        Et = self.MAT.E * self.MAT.t
        assert abs(n[0] - Et * 2e-3) < 1e-15 * Et
        assert abs(n[1]) < 1e-18 and abs(n[2]) < 1e-18

    def test_zero_strain(self):
        f = frame(flat_patch(), 0.5, 0.5)
        n = resultant_law(np.zeros(3), f["a_inv"],
                          self.MAT.membrane_stiffness, self.MAT.nu)
        assert n[0] == n[1] == n[2] == 0.0

    def test_equibiaxial_hand_expansion(self):
        # identity metric, nu = 0.3: n11 = n22 = E t eps / (1 - nu)
        mat = ShellMaterial(E=200.0, nu=0.3, t=0.05)
        f = frame(flat_patch(), 0.25, 0.5)
        n = resultant_law(np.array([1e-3, 1e-3, 0]), f["a_inv"],
                          mat.membrane_stiffness, mat.nu)
        expect = mat.E * mat.t * 1e-3 / (1 - mat.nu)
        assert abs(n[0] - expect) < 1e-12 * expect
        assert abs(n[1] - expect) < 1e-12 * expect

    def test_bending_plate_rigidity(self):
        f = frame(flat_patch(), 0.5, 0.5)
        m = resultant_law(np.array([3e-2, 0, 0]), f["a_inv"],
                          self.MAT.bending_stiffness, self.MAT.nu)
        expect = self.MAT.E * self.MAT.t ** 3 * 3e-2 / 12.0
        assert abs(m[0] - expect) < 1e-14 * expect

    def test_moment_to_force_ratio(self):
        f = frame(flat_patch(), 0.4, 0.6)
        s = np.array([1e-3, -2e-3, 5e-4])
        n = resultant_law(s, f["a_inv"], self.MAT.membrane_stiffness, self.MAT.nu)
        m = resultant_law(s, f["a_inv"], self.MAT.bending_stiffness, self.MAT.nu)
        ratio = self.MAT.t ** 2 / 12.0
        for a, b in zip(m, n):
            if b != 0:
                assert abs(a / b - ratio) < 1e-12 * ratio

    @given(st.floats(0.0, 0.49), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_energy_density_nonnegative(self, nu, e11, e22, e12):
        mat = ShellMaterial(E=10.0, nu=nu, t=0.1)
        s = sphere_patch()
        f = frame(s, 0.37, 0.61)
        eps = np.array([e11, e22, e12])
        n = resultant_law(eps * [1.0, 1.0, 2.0], f["a_inv"],
                          mat.membrane_stiffness, mat.nu)
        assert energy_pairing(eps, n) >= -1e-12 * mat.E * mat.t


class TestEffectiveMembrane:
    MAT = ShellMaterial(E=200.0, nu=0.0, t=0.05)

    def test_flat_is_identity(self):
        f = frame(flat_patch(), 0.5, 0.5)
        n = np.array([3.0, -1.0, 0.5])
        m = np.array([0.1, 0.2, -0.3])
        ne = effective_membrane_forces(n, m, f["b_mixed"])
        assert np.allclose(ne, [3.0, -1.0, 0.5], atol=1e-14)

    def test_single_term_contraction_on_cylinder(self):
        f = frame(cylinder_patch(), 0.3, 0.5)
        m = np.array([2.0, 0.0, 0.0])
        ne = effective_membrane_forces(np.zeros(3), m, f["b_mixed"])
        assert abs(ne[0] - (-m[0] * f["b_mixed"][0, 0])) < 1e-14 * abs(ne[0])


class TestLocalCartesian:
    def test_orthonormal_parameterization_is_identity(self):
        f = frame(flat_patch(), 0.5, 0.5)
        h = cartesian_components(np.array([3.0, -1.0, 0.5]), f["T"])
        assert np.allclose(h, [3.0, -1.0, 0.5], atol=1e-14)

    def test_arc_change_of_basis_oracle(self):
        # 1D change of basis: nhat11 = n11 * (ds/dtheta)^2 with ds/dtheta = |a1|
        f = frame(cylinder_patch(), 0.7, 0.4)
        h = cartesian_components(np.array([1.0, 0.0, 0.0]), f["T"])
        expect = f["a1"] @ f["a1"]
        assert abs(h[0] - expect) < 1e-10 * abs(expect)

    def test_symmetry_preserved(self):
        # the symmetric tensor c^gm a_g (x) a_m equals hat{c}^ab e_a (x) e_b
        f = frame(sphere_patch(), 0.3, 0.8)
        c = np.random.default_rng(1).random(3)
        h = cartesian_components(c, f["T"])
        A, E = np.stack([f["a1"], f["a2"]]), np.stack([f["e1"], f["e2"]])
        curv = A.T @ np.array([[c[0], c[2]], [c[2], c[1]]]) @ A
        cart = E.T @ np.array([[h[0], h[2]], [h[2], h[1]]]) @ E
        assert np.abs(cart - curv).max() <= 1e-12 * np.abs(curv).max()

    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    def test_energy_density_invariant(self, name):
        # eps_ab n^ab == ehat_ab nhat^ab when strains transform covariantly
        s = ALL_SURFACES[name]()
        mat = ShellMaterial(E=100.0, nu=0.25, t=0.02)
        rng = np.random.default_rng(15)
        for t1, t2 in rng.random((10, 2)):
            f = frame(s, t1, t2)
            eps = rng.standard_normal(3)
            n = resultant_law(eps, f["a_inv"], mat.membrane_stiffness, mat.nu)
            curv = energy_pairing(eps, n)
            # covariant transform of the strain: ehat = (E . a^g) pairing
            A, a1, a2 = f["a_inv"], f["a1"], f["a2"]
            a_up = np.stack([A[0, 0] * a1 + A[0, 1] * a2, A[1, 0] * a1 + A[1, 1] * a2])
            T = np.array([[f["e1"] @ a_up[0], f["e1"] @ a_up[1]],
                          [f["e2"] @ a_up[0], f["e2"] @ a_up[1]]])
            eh = T @ np.array([[eps[0], eps[2]], [eps[2], eps[1]]]) @ T.T
            nh = cartesian_components(n, f["T"])
            cart = (eh[0, 0] * nh[0] + eh[1, 1] * nh[1] + 2 * eh[0, 1] * nh[2])
            assert abs(cart - curv) < 1e-10 * max(1e-30, abs(curv))


class TestMaterialValidation:
    def test_invalid_material(self):
        with pytest.raises(ValueError):
            ShellMaterial(E=-1.0, nu=0.3, t=0.1)
        with pytest.raises(ValueError):
            ShellMaterial(E=1.0, nu=0.5, t=0.1)
        with pytest.raises(ValueError):
            ShellMaterial(E=1.0, nu=0.3, t=0.0)

    @pytest.mark.parametrize("field", ["E", "nu", "t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, field, value):
        params = {"E": 1.0, "nu": 0.3, "t": 0.1, field: value}
        with pytest.raises(ValueError, match="finite"):
            ShellMaterial(**params)
