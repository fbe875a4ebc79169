"""Quadrature, element stiffness (cs/cas), loads, constraints, assembly."""

import functools
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import ALL_SURFACES
import klshell.elements as elements
import klshell.solver as solver
from klshell import (DomainError, KnotVector, NurbsSurface, ShellMaterial,
                     SingularGeometryError, apply_constraints, assemble,
                     gauss_rule, load_area, load_edge_line, load_point,
                     make_uniform, solve_spd, tensor_rule)
from klshell.cases import build_loads, make_case
from klshell.elements import (_chunk_stiffness, _corner_membrane_rows, _corner_weights,
                              _dofs, _membrane_strain_rows, _rule_eval, _stiffness_batch,
                              edge_lines, fix_cps)
from klshell.fields import SolutionField, sample

KV2 = KnotVector([0, 0, 0, 1, 1, 1], 2)
MAT = ShellMaterial(E=200.0, nu=0.3, t=0.05)


def random_patch(degrees, mesh, seed=0):
    """A surface of the given degrees on open uniform knots of the element
    grid ``mesh``: a unit-square control net with random heights, and
    random weights in [1, 1.2]."""
    rng = np.random.default_rng(seed)
    kvs = [KnotVector(np.r_[np.zeros(p), np.linspace(0.0, 1.0, n + 1), np.ones(p)], p)
           for p, n in zip(degrees, mesh)]
    nu, nv = kvs[0].n_basis, kvs[1].n_basis
    x, y = np.meshgrid(np.linspace(0.0, 1.0, nu), np.linspace(0.0, 1.0, nv), indexing="ij")
    ctrl = np.stack([x, y, 0.3 * rng.random((nu, nv))], axis=-1)
    return NurbsSurface(*kvs, ctrl, 1.0 + 0.2 * rng.random((nu, nv)))


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
        assert len(rule.weights) == 25
        assert abs(rule.weights.sum() - 4.0) < 1e-13


class TestElementStiffnessCS:
    def test_symmetric(self):
        patch = ALL_SURFACES["scordelis"]()
        k = _chunk_stiffness(patch, [0], MAT, gauss_rule(3), "cs")[0][0]
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()

    def test_rigid_translation_annihilated(self):
        patch = ALL_SURFACES["hemisphere"]()
        k = _chunk_stiffness(patch, [0], MAT, gauss_rule(3), "cs")[0][0]
        T = np.tile([1.0, -2.0, 0.5], 9)
        assert np.abs(k @ T).max() <= 1e-10 * np.abs(k).max() * np.abs(T).max()

    def test_thickness_scaling(self):
        patch = ALL_SURFACES["strip"]()
        rule = gauss_rule(3)
        m1 = ShellMaterial(E=100.0, nu=0.2, t=0.04)
        m2 = ShellMaterial(E=100.0, nu=0.2, t=0.08)
        ke1, kk1, _ = _stiffness_batch(patch, [0], m1, rule, "cs")
        ke2, kk2, _ = _stiffness_batch(patch, [0], m2, rule, "cs")
        assert np.allclose(ke2, 2.0 * ke1, rtol=1e-12)
        assert np.allclose(kk2, 8.0 * kk1, rtol=1e-12)

    def test_flat_membrane_matches_plane_stress_oracle(self):
        """Independent plane-stress stiffness on the same quadratic basis."""
        patch = flat_patch()
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
        patch = make_uniform(NurbsSurface(KV2, KV2, ctrl, np.ones((3, 3))), 2, 2)
        with pytest.raises(SingularGeometryError) as exc:
            _chunk_stiffness(patch, [3], MAT, gauss_rule(3), "cs")
        message = str(exc.value)
        assert message.count("element") == 1 and "3" in message


class TestElementStiffnessCAS:
    def test_corner_reproduction_identity(self):
        """Assumed rows at the element corners equal the compatible rows."""
        patch = make_uniform(ALL_SURFACES["hemisphere"](), 2, 2)
        eids = [0, 3]
        Bc = _corner_membrane_rows(patch, eids)
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        L = _corner_weights(corners)
        assumed_at_corners = np.einsum("ql,elai->eqai", L, Bc)
        assert np.abs(assumed_at_corners - Bc).max() < 1e-14 * np.abs(Bc).max()

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("case_id, mesh", [("hypar", (4, 2)), ("strip", (8, 1))])
    def test_rows_interpolate_at_the_rule_points_bitwise(self, case_id, mesh, quad):
        """The record keeps the rule's own parent points: points rebuilt from
        the parametric ones move the rows by roundoff, and the pinned cas
        strip outputs have no margin for that."""
        patch = make_uniform(ALL_SURFACES[case_id](), *mesh)
        rule = gauss_rule(quad)
        eids = np.arange(patch.n_elements)
        rows = _membrane_strain_rows(patch, _rule_eval(patch, eids, rule), "cas")
        expected = np.einsum("ql,elai->eqai", _corner_weights(rule.points),
                             _corner_membrane_rows(patch, eids))
        assert np.array_equal(rows, expected)

    def test_symmetric_and_rigid_annihilation(self):
        patch = ALL_SURFACES["scordelis"]()
        k = _chunk_stiffness(patch, [0], MAT, gauss_rule(3), "cas")[0][0]
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()
        T = np.tile([0.2, 1.0, -0.7], 9)
        assert np.abs(k @ T).max() <= 1e-10 * np.abs(k).max()

    def test_requires_quadratic_patch(self):
        kv1 = KnotVector([0, 0, 1, 1], 1)
        ctrl = np.zeros((2, 2, 3))
        ctrl[1, :, 0] = 1.0
        ctrl[:, 1, 1] = 1.0
        patch = NurbsSurface(kv1, kv1, ctrl, np.ones((2, 2)))
        with pytest.raises(ValueError):
            _chunk_stiffness(patch, [0], MAT, gauss_rule(2), "cas")

    def test_assumed_strain_continuity_across_edges(self):
        """Assumed membrane strain rows agree across shared element edges."""
        patch = make_uniform(ALL_SURFACES["hemisphere"](), 4, 4)
        n_dof = 3 * patch.n_cp
        # elements 0 and 4 share the edge u = 1/4 (v in [0, 1/4])
        e_left, e_right = 0, 4
        Bc = _corner_membrane_rows(patch, [e_left, e_right])
        for eta in (-1.0, -0.3, 0.4, 1.0):
            rows = {}
            for k, (eid, xi) in enumerate(((e_left, 1.0), (e_right, -1.0))):
                L = _corner_weights(np.array([[xi, eta]]))
                local = np.einsum("ql,lai->qai", L, Bc[k])[0]
                full = np.zeros((3, n_dof))
                full[:, _dofs(patch.conn)[eid]] = local
                rows[eid] = full
            scale = max(np.abs(rows[e_left]).max(), 1e-30)
            assert np.abs(rows[e_left] - rows[e_right]).max() <= 1e-12 * scale


class TestPatch:
    def test_elements_are_the_knot_spans(self):
        """Element ids, span pairs, connectivity and locate agree, u-major."""
        patch = make_uniform(ALL_SURFACES["hemisphere"](), 5, 3)
        kv_u, kv_v = patch.kv_u, patch.kv_v
        assert patch.n_el == (5, 3) and patch.n_elements == 15
        su, sv = patch.element_spans(np.arange(15))
        assert list(zip(su, sv)) == [(i, j) for i in range(2, 7) for j in range(2, 5)]
        assert list(patch.conn[7]) == [11, 12, 13, 16, 17, 18, 21, 22, 23]
        centres = np.stack([kv_u.knots[su] + kv_u.knots[su + 1],
                            kv_v.knots[sv] + kv_v.knots[sv + 1]], axis=-1) / 2.0
        assert list(patch.locate(centres)) == list(range(15))
        assert patch.locate([1.0, 1.0]) == 14


class TestAssembly:
    def test_unknown_element_kind_raises(self):
        with pytest.raises(ValueError, match="unknown element kind 'xx'"):
            assemble(flat_patch(), MAT, gauss_rule(3), "xx")

    def test_single_element_padding(self):
        patch = flat_patch()
        rule = gauss_rule(3)
        K = assemble(patch, MAT, rule, "cs")[0].toarray()
        k = _chunk_stiffness(patch, [0], MAT, rule, "cs")[0][0]
        dofs = _dofs(patch.conn)[0]
        assert np.allclose(K[np.ix_(dofs, dofs)], k, atol=1e-14 * np.abs(k).max())

    def test_sparsity_pattern_cs_equals_cas(self):
        patch = make_uniform(ALL_SURFACES["scordelis"](), 3, 3)
        Kcs, _ = assemble(patch, MAT, gauss_rule(3), "cs")
        Kcas, _ = assemble(patch, MAT, gauss_rule(3), "cas")
        assert np.array_equal(Kcs.indptr, Kcas.indptr)
        assert np.array_equal(Kcs.indices, Kcas.indices)
        # both equal the support-overlap pattern: dofs couple iff some
        # element supports both control points
        n = 3 * patch.n_cp
        overlap = np.zeros((n, n), dtype=bool)
        for dofs in _dofs(patch.conn):
            overlap[np.ix_(dofs, dofs)] = True
        pattern = np.zeros((n, n), dtype=bool)
        coo = Kcas.tocoo()
        pattern[coo.row, coo.col] = True
        assert np.array_equal(pattern, overlap)

    def test_global_symmetry(self):
        patch = make_uniform(ALL_SURFACES["hemisphere"](), 3, 3)
        K, _ = assemble(patch, MAT, gauss_rule(3), "cas")
        diff = abs(K - K.T)
        assert diff.max() <= 1e-10 * abs(K).max()

    def test_bitwise_deterministic(self):
        patch = make_uniform(ALL_SURFACES["strip"](), 4, 2)
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
        pytest.param((1, 1), (3, 2), id="degrees-1-1-3x2"),
        pytest.param((3, 2), (4, 3), id="degrees-3-2-4x3"),
        pytest.param((2, 3), (1, 5), id="degrees-2-3-1x5"),
        pytest.param((2, 2), (1, 1), id="degrees-2-2-1x1"),
    ])
    def test_stencil_scatter_matches_dense_oracle(self, case_id, mesh, kind, quad):
        """The stencil scatter against element matrices summed densely.

        One element row (the strips, the degree (2, 3) patch) clips the
        stencil in v, and one element (the quadratic 1x1 patch) clips it at
        every control point.  A ``case_id`` of degrees is a random patch
        (see ``random_patch``); cas refuses those that are not quadratic."""
        if isinstance(case_id, str):
            case = make_case(case_id)
            patch, mat = make_uniform(case.surface, *mesh), case.material
        else:
            patch, mat = random_patch(case_id, mesh), MAT
        rule = gauss_rule(quad)
        if kind == "cas" and (patch.kv_u.degree, patch.kv_v.degree) != (2, 2):
            with pytest.raises(ValueError, match="quadratic"):
                assemble(patch, mat, rule, kind)
            return
        K, _ = assemble(patch, mat, rule, kind)
        n = 3 * patch.n_cp
        dense, shared = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
        k, _ = _chunk_stiffness(patch, np.arange(patch.n_elements), mat, rule, kind)
        for dofs, k_e in zip(_dofs(patch.conn), k):
            block = np.ix_(dofs, dofs)
            np.add.at(dense, block, k_e)
            shared[block] = True

        assert np.abs(K.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
        stored = np.zeros((n, n), dtype=bool)
        coo = K.tocoo()
        stored[coo.row, coo.col] = True
        assert np.array_equal(stored, shared)

        assert K.has_canonical_format
        assert (K != K.T).nnz == 0


class TestThreadedAssembly:
    """Parts of a chunk on the thread pool give bitwise the unsplit result."""

    @staticmethod
    def assembled(monkeypatch, case_id, mesh, kind, quad, workers, part_min):
        """K, area and the batch sizes of _stiffness_batch with the pool's
        worker count and part floor set as given."""
        monkeypatch.setattr(elements, "_WORKERS", workers)
        monkeypatch.setattr(elements, "_PART_MIN", part_min)
        # a fresh pool, sized by workers
        monkeypatch.setattr(elements, "_pool", functools.cache(elements._pool.__wrapped__))
        sizes, batch = [], elements._stiffness_batch

        def counted(patch, eids, *args):
            sizes.append(len(eids))
            return batch(patch, eids, *args)

        monkeypatch.setattr(elements, "_stiffness_batch", counted)
        case = make_case(case_id)
        patch = make_uniform(case.surface, *mesh)
        K, area = assemble(patch, case.material, gauss_rule(quad), kind)
        return (K, area), sizes

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("hypar", (8, 4)), ("hypar", (16, 8)), ("strip", (8, 1)), ("strip", (256, 1)),
        ("scordelis", (4, 4)), ("hemisphere", (4, 4)),
    ])
    def test_split_is_bitwise(self, monkeypatch, case_id, mesh, kind, quad, parts):
        """1 part by the floor, 2 and 3 by the worker count, against one CPU."""
        (K0, area0), _ = self.assembled(monkeypatch, case_id, mesh, kind, quad, 1, 1)
        ne = mesh[0] * mesh[1]
        workers, part_min = (3, ne) if parts == 1 else (parts, 1)
        (K, area), sizes = self.assembled(monkeypatch, case_id, mesh, kind, quad,
                                          workers, part_min)
        assert len(sizes) == parts and sum(sizes) == ne
        for a, b in ((K.data, K0.data), (K.indices, K0.indices),
                     (K.indptr, K0.indptr), (area, area0)):
            assert np.array_equal(a, b)

    def test_more_parts_than_cpus_under_fast_switching(self, monkeypatch):
        """Eight parts on a pool of seven threads, switched every microsecond,
        write disjoint rows of one buffer: the result stays bitwise."""
        (K0, area0), _ = self.assembled(monkeypatch, "hypar", (16, 8), "cas", 3, 1, 1)
        result, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(self.assembled(
                monkeypatch, "hypar", (16, 8), "cas", 3, 8, 1)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(result) == 1
        (K, area), sizes = result[0]
        assert sizes == [16] * 8
        assert np.array_equal(K.data, K0.data) and np.array_equal(area, area0)

    def test_chunk_below_the_floor_never_creates_the_pool(self, monkeypatch):
        _, sizes = self.assembled(monkeypatch, "strip", (256, 1), "cas", 3,
                                  16, elements._PART_MIN)
        assert sizes == [256] and elements._pool.cache_info().currsize == 0
        _, sizes = self.assembled(monkeypatch, "strip", (256, 1), "cas", 3, 2, 128)
        assert sizes == [128, 128] and elements._pool.cache_info().currsize == 1

    @pytest.mark.parametrize("failing", [0, 2])
    def test_an_error_of_one_part_is_raised_after_every_part_is_joined(
            self, monkeypatch, failing):
        """Part 0 runs on the caller, parts 1 and 2 on the pool; the parts
        that do not fail are still running when the failing one raises."""
        batch, finished = elements._stiffness_batch, []

        def failing_or_slow(patch, eids, *args):
            if eids[0] == (0, 2, 5)[failing]:
                raise RuntimeError("part failed")
            time.sleep(0.05)
            result = batch(patch, eids, *args)
            finished.append(int(eids[0]))
            return result

        monkeypatch.setattr(elements, "_WORKERS", 3)
        monkeypatch.setattr(elements, "_PART_MIN", 1)
        monkeypatch.setattr(elements, "_pool", functools.cache(elements._pool.__wrapped__))
        monkeypatch.setattr(elements, "_stiffness_batch", failing_or_slow)
        patch = make_uniform(make_case("hypar").surface, 4, 2)
        with pytest.raises(RuntimeError, match="^part failed$"):
            assemble(patch, MAT, gauss_rule(3), "cs")
        assert sorted(finished) == [e for e in (0, 2, 5) if e != (0, 2, 5)[failing]]


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
        patch = make_uniform(distorted_flat_net(), n, n)
        U = (patch.ctrl.reshape(-1, 3) @ self.G.T).ravel()
        rule = gauss_rule(3)
        eids = np.arange(patch.n_elements)
        ev = _rule_eval(patch, eids, rule)
        rows = _membrane_strain_rows(patch, ev, kind)
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


class TestCurvedMembranePatch:
    """Uniform axial stretch of the Scordelis-Lo cylinder without diaphragms.

    U* = eps (0, y_A, 0) at every control point is exact, since the rational
    basis is a partition of unity.  Its only strain is e22, so n22 = Et eps
    (nu = 0) is the only resultant and the interior needs no load: edge
    loads +-(0, Et eps, 0) on v1 and v0, with u_y fixed on the v0 row and
    u_x, u_z at its two ends, which leave no rigid motion.  cs reproduces
    the state at every slenderness, to the solver's roundoff.  The largest
    errors measured over 2-32 elements per side and R/t 1e2-1e6 (U relative
    to max|U*|, n to Et eps, m to Et eps t) are, at quad 2, 3.9e-9, 6.9e-11
    and 2.9e-13, and at quad 3, 2.1e-10, 1.6e-12 and 5.3e-14; they grow
    with the mesh.  The bounds are ten times those values.
    """

    EPS = 1e-3
    BOUNDS = {2: (4e-8, 7e-10, 3e-12), 3: (2e-9, 2e-11, 6e-13)}

    @pytest.mark.parametrize("quad", [2, 3])
    @pytest.mark.parametrize("slenderness", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_cs_reproduces_the_stretch(self, n, slenderness, quad):
        case = make_case("scordelis", slenderness)
        mat = case.material
        patch = make_uniform(case.surface, n, n)
        K, _ = assemble(patch, mat, gauss_rule(quad), "cs")
        n22 = mat.membrane_stiffness * self.EPS
        F = (load_edge_line(patch, "v1", quad, [0.0, n22, 0.0])
             + load_edge_line(patch, "v0", quad, [0.0, -n22, 0.0]))
        row = edge_lines("v0", patch.shape)
        reduced = apply_constraints(K, F, np.concatenate(
            [fix_cps(row, (1,)), fix_cps(row[[0, -1]], (0, 2))]))
        U = reduced.expand(np.asarray(solve_spd(reduced.K, reduced.F).U, dtype=float))
        U_star = self.EPS * patch.ctrl.reshape(-1, 3) * [0.0, 1.0, 0.0]
        bound_u, bound_n, bound_m = self.BOUNDS[quad]
        assert np.abs(U.reshape(-1, 3) - U_star).max() <= bound_u * np.abs(U_star).max()

        sol = SolutionField(patch, U.reshape(-1, 3), "cs", mat)
        at = sample(sol, np.random.default_rng(7).random((200, 2)))
        assert np.abs(at["n"] - [0.0, n22, 0.0]).max() <= bound_n * n22
        assert np.abs(at["m"]).max() <= bound_m * n22 * mat.t


def area_load_by_elements(patch, rule, f):
    """The consistent area load summed element by element, sum_q N f dA."""
    F = np.zeros(3 * patch.n_cp)
    for e in range(patch.n_elements):
        ev = _rule_eval(patch, [e], rule)
        F[_dofs(patch.conn)[e]] += np.einsum("qA,c,q->Ac", ev["N"][0], f,
                                             ev["dA"][0]).ravel()
    return F


class TestLoads:
    def test_zero_area_load(self):
        patch = flat_patch()
        _, area = assemble(patch, MAT, gauss_rule(3), "cs")
        F = load_area(area, np.zeros(3))
        assert F.shape == (3 * patch.n_cp,)
        assert np.all(F == 0.0)

    def test_unit_square_total_load(self):
        patch = flat_patch()
        _, area = assemble(patch, MAT, gauss_rule(3), "cs")
        assert abs(area.sum() - 1.0) < 1e-12
        F = load_area(area, np.array([0.0, 0.0, 1.0]))
        assert abs(F[2::3].sum() - 1.0) < 1e-12

    def test_roof_total_vertical_load(self):
        patch = make_uniform(ALL_SURFACES["scordelis"](), 4, 4)
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
        patch = make_uniform(case.surface, *mesh)
        f = np.array([0.3, -1.2, -90.0])
        _, area = assemble(patch, case.material, gauss_rule(quad), "cas")
        F = area_load_by_elements(patch, gauss_rule(quad), f)
        assert np.abs(load_area(area, f) - F).max() <= 1e-15 * np.abs(F).max()

    def test_zero_edge_load(self):
        patch = flat_patch()
        F = load_edge_line(patch, "u1", 3, np.zeros(3))
        assert np.all(F == 0.0)

    @pytest.mark.parametrize("edge,length", [("u0", 3.0), ("u1", 3.0),
                                             ("v0", 2.0), ("v1", 2.0)])
    def test_straight_edge_total(self, edge, length):
        """The total is q times the edge length, and only the control points
        of that edge are loaded."""
        patch = make_uniform(flat_patch(a=2.0, b=3.0), 3, 2)
        q = np.array([0.5, 0.0, -1.0])
        F = load_edge_line(patch, edge, 3, q)
        assert abs(F[0::3].sum() - q[0] * length) < 1e-12
        assert abs(F[2::3].sum() - q[2] * length) < 1e-12
        on_edge = np.zeros(patch.n_cp, dtype=bool)
        on_edge[edge_lines(edge, patch.shape)] = True
        assert np.array_equal(np.any(F.reshape(-1, 3) != 0.0, axis=1), on_edge)

    def test_strip_free_end_total(self):
        t = 0.1
        patch = make_uniform(ALL_SURFACES["strip"](), 8, 1)
        F = load_edge_line(patch, "u1", 3, np.array([-0.1 * t ** 3, 0.0, 0.0]))
        assert abs(F[0::3].sum() + 0.1 * t ** 3) < 1e-14

    def test_non_boundary_edge_raises(self):
        patch = flat_patch()
        with pytest.raises(ValueError):
            load_edge_line(patch, "mid", 3, np.zeros(3))

    def test_point_load_at_corner(self):
        patch = flat_patch()
        P = np.array([1.0, 2.0, 3.0])
        F = load_point(patch, (0.0, 0.0), P)
        g = 0  # control point (iu, iv) = (0, 0): grid index iu * n_v + iv
        assert np.allclose(F[3 * g: 3 * g + 3], P, atol=1e-14)
        assert abs(F.sum() - P.sum()) < 1e-14

    def test_point_loads_add_in_order(self):
        """Several points in one call give the sum of one call per point."""
        patch = make_uniform(flat_patch(), 3, 2)
        theta = [(0.0, 0.0), (0.3, 0.4), (1.0, 0.0), (0.3, 0.45)]
        P = [(1.0, 2.0, 3.0), (-0.5, 0.25, 1.0), (0.0, 4.0, 0.0), (0.1, 0.2, 0.3)]
        one_by_one = np.zeros(3 * patch.n_cp)
        for t, p in zip(theta, P):
            one_by_one += load_point(patch, t, p)
        assert np.array_equal(load_point(patch, theta, P), one_by_one)

    def test_nan_point_raises(self):
        patch = make_uniform(flat_patch(), 3, 2)
        with pytest.raises(DomainError):
            load_point(patch, [(float("nan"), 0.5)], [(1.0, 0.0, 0.0)])

    def test_zero_point_load(self):
        patch = flat_patch()
        F = load_point(patch, (0.3, 0.4), np.zeros(3))
        assert np.all(F == 0.0)


def constrained(case_id, mesh, kind, quad=3):
    """The assembled K and F of a benchmark case and their reduced system."""
    case = make_case(case_id)
    patch = make_uniform(case.surface, *mesh)
    K, area = assemble(patch, case.material, gauss_rule(quad), kind)
    F = build_loads(case, patch, quad, area)
    return K, F, apply_constraints(K, F, *case.constraints(patch))


class TestConstraints:
    def test_no_constraints_identity(self):
        patch = flat_patch()
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        red = apply_constraints(K, np.zeros(3 * patch.n_cp), [])
        assert len(red.free) == 3 * patch.n_cp
        U = red.expand(np.ones(len(red.free)))
        assert np.all(U == 1.0)

    def test_fixed_count(self):
        patch = flat_patch()
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        red = apply_constraints(K, np.zeros(3 * patch.n_cp),
                                fix_cps(edge_lines("u0", patch.shape)))
        assert len(red.free) == 27 - 9

    def test_all_fixed_raises(self):
        patch = flat_patch()
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        with pytest.raises(ValueError):
            apply_constraints(K, np.zeros(3 * patch.n_cp), np.arange(3 * patch.n_cp))

    def test_multipoint_tie(self):
        """A two-dof tie U_a = U_b is satisfied exactly by the expansion."""
        patch = flat_patch()
        K, area = assemble(patch, MAT, gauss_rule(3), "cs")
        row = (np.array([13, 16]), np.array([1.0, -1.0]))
        F = load_area(area, np.array([0.0, 1.0, 0.0]))
        red = apply_constraints(K, F, fix_cps(edge_lines("u0", patch.shape)), (row,))
        U = red.expand(np.asarray(solve_spd(red.K, red.F).U, float))
        assert abs(U[13] - U[16]) < 1e-12 * max(1.0, abs(U).max())

    def test_work_balance(self):
        case = make_case("scordelis", slenderness=1e2)
        patch = make_uniform(case.surface, 8, 8)
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
        patch = flat_patch()
        K, _ = assemble(patch, MAT, gauss_rule(2), "cs")
        row = (np.array([13, dof]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="out of range"):
            apply_constraints(K, np.zeros(3 * patch.n_cp), [], (row,))

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
        patch = make_uniform(case.surface, *mesh)
        fixed, rows = case.constraints(patch)
        n = 3 * patch.n_cp
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
        the solver reads off its upper triangle equals LAPACK's lower band
        storage of its lower triangle, ab[i - j, j] = K[i, j] for i >= j,
        built by mask."""
        _, _, red = constrained(case_id, mesh, kind)
        K, n = red.K, red.K.shape[0]
        assert K.has_canonical_format
        assert np.all(K.data != 0.0)
        assert (K != K.T).nnz == 0
        lower = sp.tril(K).tocoo()
        bw = int((lower.row - lower.col).max())
        band = np.zeros((bw + 1, n))
        band[lower.row - lower.col, lower.col] = lower.data
        monkeypatch.setattr(solver, "_BAND_MIN_WORK", 0)
        assert np.array_equal(solver._lower_band(K), band)

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


def _quadratic_mpc_transform(n, fixed_mask, rows):
    """The master/slave basis as first written: each new slave is
    substituted by a scan over every earlier expression, and T is built
    from Python lists of every free dof.  ``_mpc_transform`` must match it
    bit for bit."""
    slave_of = {}
    for dofs, coeffs in rows:
        out = {}
        for d, c in zip(dofs, coeffs):
            if fixed_mask[d]:
                continue
            for dm, wm in slave_of.get(int(d), {int(d): 1.0}).items():
                out[dm] = out.get(dm, 0.0) + float(c) * wm
        out = {d: c for d, c in out.items() if c != 0.0}
        if not out:
            continue
        scale = max(abs(c) for c in out.values())
        out = {d: c for d, c in out.items() if abs(c) > 1e-14 * scale}
        slave = next(d for d, c in out.items() if abs(c) == scale)
        cs = out.pop(slave)
        expr = {d: -c / cs for d, c in sorted(out.items())}
        for entry in slave_of.values():
            w = entry.pop(slave, None)
            if w is not None:
                for d, ws in expr.items():
                    entry[d] = entry.get(d, 0.0) + w * ws
        slave_of[slave] = expr
    is_slave = np.zeros(n, dtype=bool)
    is_slave[list(slave_of.keys())] = True
    free = np.nonzero(~fixed_mask & ~is_slave)[0]
    col_of = -np.ones(n, dtype=np.int64)
    col_of[free] = np.arange(len(free))
    ti, tj, tv = list(free), list(range(len(free))), [1.0] * len(free)
    for slave, entry in slave_of.items():
        for d, w in sorted(entry.items()):
            if w != 0.0:
                ti.append(slave)
                tj.append(int(col_of[d]))
                tv.append(w)
    return free, sp.csr_matrix((tv, (ti, tj)), shape=(n, len(free)))


class TestEliminationBits:
    """``apply_constraints`` reproduces, bit for bit, the elimination as
    first written: the quadratic basis above and ``T.T @ K @ T`` (with
    scipy's CSC copy of K), triangle and mirror."""

    @staticmethod
    def _assert_same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        if a.dtype == np.float64:
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a.astype(np.int64), b.astype(np.int64))

    @pytest.mark.parametrize("kind", ["cs", "cas"])
    @pytest.mark.parametrize("case_id,mesh", [
        ("strip", (2, 1)), ("strip", (256, 1)), ("scordelis", (16, 16)),
        ("hemisphere", (32, 32)), ("hypar", (8, 4)), ("hypar", (128, 64)),
    ])
    def test_reduced_system_matches_the_first_formulation(self, case_id, mesh, kind):
        case = make_case(case_id)
        patch = make_uniform(case.surface, *mesh)
        K, area = assemble(patch, case.material, gauss_rule(3), kind)
        F = build_loads(case, patch, 3, area)
        fixed, rows = case.constraints(patch)
        red = apply_constraints(K, F, fixed, rows)
        fixed_mask = np.zeros(K.shape[0], dtype=bool)
        fixed_mask[fixed] = True
        free, T = _quadratic_mpc_transform(K.shape[0], fixed_mask, [
            (np.asarray(d, dtype=np.int64), np.asarray(c, dtype=float)) for d, c in rows])
        upper = sp.triu(T.T @ K @ T, format="csr")
        upper.sort_indices()
        Kred = sp.csr_matrix(upper + sp.triu(upper, k=1).T)
        for name in ("data", "indices", "indptr"):
            self._assert_same_bits(getattr(red.K, name), getattr(Kred, name))
            self._assert_same_bits(getattr(red.T, name), getattr(T, name))
        self._assert_same_bits(red.free, free)
        self._assert_same_bits(red.F, T.T @ F)


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
        patch = make_uniform(case.surface, *mesh)
        K, _ = assemble(patch, case.material, gauss_rule(quad), kind)
        generator = int(kind == "cas" and case_id in ("strip", "scordelis"))
        assert _zero_modes(K.toarray()) == 6 + generator
        red = apply_constraints(K, np.zeros(3 * patch.n_cp), *case.constraints(patch))
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
        patch = make_uniform(case.surface, *mesh)
        red = apply_constraints(assemble(patch, case.material, gauss_rule(quad), "cas")[0],
                                np.zeros(3 * patch.n_cp), *case.constraints(patch))
        K = red.K.toarray()
        d = 1.0 / np.sqrt(np.diag(K))
        lam, V = np.linalg.eigh(K * d[:, None] * d[None, :])
        U = red.expand(d * V[:, 0]).reshape(-1, 3)
        boundary = np.concatenate([edge_lines(e, patch.shape)
                                   for e in ("u0", "u1", "v0", "v1")])
        bound = np.finfo(float).eps * lam[-1] / lam[1]
        assert np.abs(U[boundary]).max() <= bound * np.abs(U).max()
