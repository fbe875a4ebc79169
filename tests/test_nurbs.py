"""Knot vectors, basis evaluation, surface evaluation and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SURFACES, basis_at, hemisphere_surface, strip_surface
from klshell import (DomainError, KnotVector, NurbsSurface, insert_knots,
                     make_uniform, surface_eval)
from klshell.elements import Patch, tensor_rule
from klshell.nurbs import _basis_ders_at_span, find_spans, rational_eval

KV2 = KnotVector([0, 0, 0, 1, 1, 1], 2)
KV2_MID = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)


class TestKnotVector:
    def test_basic_properties(self):
        assert KV2.n_basis == 3
        assert KV2_MID.n_basis == 4
        k = KV2_MID.knots  # the nonempty spans, one element each, are range(p, n_basis)
        assert [i for i in range(len(k) - 1) if k[i] < k[i + 1]] == [2, 3]

    @pytest.mark.parametrize("knots,degree", [
        ([0, 0, 1, 1], 2),              # not clamped for p=2
        ([0, 0, 0, 1, 0.5, 1, 1], 2),   # decreasing
        ([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2),  # repeated interior
        ([0, 0, 0, 1, 1, 1], -1),
        ([0.0] * 6, 2),                 # zero length: no nonempty span
        ([0, 0, 0, np.inf, np.inf, np.inf], 2),
    ])
    def test_invalid_raises(self, knots, degree):
        with pytest.raises(ValueError):
            KnotVector(knots, degree)

    def test_start_repeated_too_few_times_is_not_open(self):
        with pytest.raises(ValueError, match="must be open"):
            KnotVector([0, 0, 0.5, 1, 1, 1], 2)


class TestFindSpan:
    def test_clamped_start(self):
        assert find_spans(KV2, 0.0) == 2

    def test_interior(self):
        assert find_spans(KV2_MID, 0.75) == 3

    def test_right_endpoint_maps_to_last_span(self):
        assert find_spans(KV2_MID, 1.0) == 3

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            find_spans(KV2, 1.5)
        with pytest.raises(DomainError):
            find_spans(KV2, -0.1)
        with pytest.raises(DomainError):
            find_spans(KV2_MID, [0.25, float("nan")])


def _ders(kv, t, order=0):
    """Nonzero basis values and derivatives (..., order+1, degree+1) at the points t."""
    ders = _basis_ders_at_span(kv.knots, kv.degree, find_spans(kv, t), t, order)
    return np.moveaxis(ders, (0, 1), (-2, -1))


class TestBasisDers:
    def test_quadratic_midpoint(self):
        vals = _ders(KV2, 0.5)
        assert np.allclose(vals[0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_clamped_endpoint(self):
        vals = _ders(KV2, 0.0)
        assert np.allclose(vals[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_first_derivative_midpoint(self):
        vals = _ders(KV2, 0.5, order=1)
        assert np.allclose(vals[1], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_arrays_match_points(self):
        """One array call equals the one-point calls, point by point."""
        kv = KnotVector([0.0] * 4 + [0.15, 0.4, 0.45, 0.8] + [1.0] * 4, 3)
        t = np.random.default_rng(2).random((6, 5))
        t[0, :3] = (0.0, 0.4, 1.0)
        arr = _ders(kv, t, order=2)
        assert arr.shape == (6, 5, 3, 4)
        for idx in np.ndindex(t.shape):
            assert np.array_equal(arr[idx], _ders(kv, t[idx], order=2))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            rational_eval(quarter_arc_strip(), 2, 2, 0.5, 0.5, order=3)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity_1d(self, t):
        vals = _ders(KV2_MID, t, order=2)
        assert abs(vals[0].sum() - 1.0) < 1e-14
        assert abs(vals[1].sum()) < 1e-12
        assert abs(vals[2].sum()) < 1e-11
        # degrees 1-4 on a non-uniform open knot vector
        for p in range(1, 5):
            kv = KnotVector([0.0] * (p + 1) + [0.15, 0.4, 0.45, 0.8] + [1.0] * (p + 1), p)
            vals = _ders(kv, t, order=2)
            assert vals.shape == (3, p + 1)
            assert np.all(vals[0] >= 0.0)
            assert abs(vals[0].sum() - 1.0) < 1e-14
            for d in (1, 2):
                assert abs(vals[d].sum()) < 1e-14 * max(1.0, np.abs(vals[d]).sum())
            if p == 1:
                assert np.all(vals[2] == 0.0)


def quarter_arc_strip():
    # arc of radius 10 from (10, 0) through the diagonal to (0, 10)
    kv = KV2
    ctrl = np.zeros((3, 3, 3))
    for j, z in enumerate((0.0, 0.5, 1.0)):
        ctrl[0, j] = [10.0, 0.0, z]
        ctrl[1, j] = [10.0, 10.0, z]
        ctrl[2, j] = [0.0, 10.0, z]
    w = np.outer([1.0, np.sqrt(2) / 2, 1.0], np.ones(3))
    return NurbsSurface(kv, kv, ctrl, w)


class TestNurbsSurface:
    @pytest.mark.parametrize("entry,value", [
        ("ctrl", np.nan), ("weights", np.inf), ("weights", np.nan),
    ])
    def test_non_finite_net_raises(self, entry, value):
        s = quarter_arc_strip()
        net = {"ctrl": s.ctrl.copy(), "weights": s.weights.copy()}
        net[entry][1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            NurbsSurface(s.kv_u, s.kv_v, net["ctrl"], net["weights"])

    @pytest.mark.parametrize("ctrl,weights,message", [
        (np.zeros((3, 2, 3)), np.ones((3, 3)), "control grid shape"),
        (np.zeros((3, 3, 3)), np.ones((3, 2)), "weight grid shape"),
        (np.zeros((3, 3, 3)), 1.0 - np.eye(3), "strictly positive"),
    ], ids=["ctrl-shape", "weight-shape", "zero-weight"])
    def test_malformed_net_raises(self, ctrl, weights, message):
        with pytest.raises(ValueError, match=message):
            NurbsSurface(KV2, KV2, ctrl, weights)


class TestSurfaceEval:
    def test_quarter_circle_midpoint(self):
        s = quarter_arc_strip()
        r, = surface_eval(s, 0.5, 0.0, order=0)
        assert np.allclose(r[:2], [10 / np.sqrt(2), 10 / np.sqrt(2)], atol=1e-12)

    def test_flat_patch_derivatives(self):
        kv = KV2
        ctrl = np.zeros((3, 3, 3))
        for i, x in enumerate((0.0, 0.5, 1.0)):
            for j, y in enumerate((0.0, 0.5, 1.0)):
                ctrl[i, j] = [x, y, 0.0]
        s = NurbsSurface(kv, kv, ctrl, np.ones((3, 3)))
        r, r1, r2, r11, r22, r12 = surface_eval(s, 0.3, 0.7)
        assert np.allclose(r1, [1, 0, 0], atol=1e-14)
        assert np.allclose(r2, [0, 1, 0], atol=1e-14)
        assert np.allclose(r11, 0, atol=1e-14)

    def test_cylinder_radius_oracle(self):
        s = quarter_arc_strip()
        rng = np.random.default_rng(7)
        for t1, t2 in rng.random((1000, 2)):
            r, = surface_eval(s, t1, t2, order=0)
            assert abs(r[0] ** 2 + r[1] ** 2 - 100.0) < 1e-10 * 100.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            surface_eval(quarter_arc_strip(), 1.2, 0.5)

    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    def test_derivatives_match_finite_differences(self, name):
        s = ALL_SURFACES[name]()
        s = make_uniform(s, 2, 2)
        h = 1e-5
        rng = np.random.default_rng(3)
        for t1, t2 in h + rng.random((5, 2)) * (1 - 2 * h):
            r, r1, r2, r11, r22, r12 = surface_eval(s, t1, t2)
            rp, = surface_eval(s, t1 + h, t2, order=0)
            rm, = surface_eval(s, t1 - h, t2, order=0)
            scale = max(1.0, np.abs(r1).max())
            assert np.allclose((rp - rm) / (2 * h), r1, rtol=1e-6, atol=1e-6 * scale)
            assert np.allclose((rp - 2 * r + rm) / h ** 2, r11,
                               rtol=1e-5, atol=1e-4 * max(1.0, np.abs(r11).max()))
            rq, = surface_eval(s, t1, t2 + h, order=0)
            rr, = surface_eval(s, t1, t2 - h, order=0)
            assert np.allclose((rq - rr) / (2 * h), r2, rtol=1e-6,
                               atol=1e-6 * max(1.0, np.abs(r2).max()))
            ra, = surface_eval(s, t1 + h, t2 + h, order=0)
            rb, = surface_eval(s, t1 - h, t2 + h, order=0)
            rc, = surface_eval(s, t1 + h, t2 - h, order=0)
            rd, = surface_eval(s, t1 - h, t2 - h, order=0)
            assert np.allclose((ra - rb - rc + rd) / (4 * h * h), r12,
                               rtol=1e-5, atol=1e-4 * max(1.0, np.abs(r12).max()))


class TestRationalBasis:
    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    def test_partition_of_unity(self, name):
        s = make_uniform(ALL_SURFACES[name](), 4, 4)
        rng = np.random.default_rng(11)
        for t1, t2 in rng.random((250, 2)):
            be = basis_at(s, t1, t2)
            assert abs(be["N"].sum() - 1.0) < 1e-12
            assert abs(be["N1"].sum()) < 1e-12 * 10
            assert abs(be["N2"].sum()) < 1e-12 * 10
            assert abs(be["N11"].sum()) < 1e-9
            assert abs(be["N22"].sum()) < 1e-9
            assert abs(be["N12"].sum()) < 1e-9


def _einsum_rational_eval(surface, su, sv, t1, t2, order):
    """The earlier formulation of ``rational_eval``: stacked basis products,
    one einsum for the homogeneous sums and the quotient rule on the
    C-contiguous (k, ..., nfun + 4) numerators.  Its bits are the reference."""
    pu, pv = surface.kv_u.degree, surface.kv_v.degree
    Du, Dv = (np.moveaxis(_basis_ders_at_span(kv.knots, kv.degree, s, t, order),
                          (0, 1), (-2, -1))
              for kv, s, t in ((surface.kv_u, su, t1), (surface.kv_v, sv, t2)))
    iu = np.asarray(su)[..., None] - pu + np.arange(pu + 1)
    iv = np.asarray(sv)[..., None] - pv + np.arange(pv + 1)
    idx = iu[..., :, None] * surface.kv_v.n_basis + iv[..., None, :]
    H = surface.homogeneous().reshape(-1, 4)[idx.reshape(idx.shape[:-2] + (-1,))]
    ders = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))[:(1, 3, 6)[order]]
    B = np.empty((len(ders),) + np.broadcast_shapes(Du.shape[:-2], Dv.shape[:-2])
                 + (pu + 1, pv + 1))
    for k, (d1, d2) in enumerate(ders):
        np.multiply(Du[..., d1, :, None], Dv[..., d2, None, :], out=B[k])
    B = B.reshape(B.shape[:-2] + (-1,))
    S = np.empty(B.shape[:-1] + (B.shape[-1] + 4,))
    np.multiply(B, H[..., 3], out=S[..., :-4])
    np.einsum("k...A,...Ac->k...c", B, H, out=S[..., -4:])
    W, R = S[..., -1:], np.empty_like(S)
    R[0] = S[0] / W[0]
    for a in range(1, min(len(S), 3)):
        R[a] = (S[a] - R[0] * W[a]) / W[0]
    if len(S) > 3:
        for aa, a in ((3, 1), (4, 2)):
            R[aa] = (S[aa] - 2.0 * R[a] * W[a] - R[0] * W[aa]) / W[0]
        R[5] = (S[5] - R[1] * W[2] - R[2] * W[1] - R[0] * W[5]) / W[0]
    return R


class TestRationalEvalBitwise:
    """``rational_eval`` gives the einsum formulation's bits, signed zeros
    included, as one C-contiguous array, for every batch shape it takes."""

    @staticmethod
    def assert_same_bits(surface, su, sv, t1, t2, order):
        got = rational_eval(surface, su, sv, t1, t2, order)
        ref = _einsum_rational_eval(surface, su, sv, t1, t2, order)
        assert got.flags.c_contiguous
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.fixture(scope="class")
    def patches(self):
        """Each net refined to a 64 x 32 mesh: 2048 elements."""
        return {name: Patch(make_uniform(f(), 64, 32)) for name, f in ALL_SURFACES.items()}

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    @pytest.mark.parametrize("n_el", [1, 2, 256, 2048])
    def test_element_batches(self, patches, name, n_el, order):
        """(ne, 1) spans with (ne, nq) points: rule points and the corners,
        and with (ne, 1) points."""
        patch = patches[name]
        rng = np.random.default_rng(n_el + order)
        eids = rng.permutation(patch.n_elements)[:n_el]
        su, sv = patch.element_spans(eids)
        ku, kv = patch.surface.kv_u.knots, patch.surface.kv_v.knots
        xi = np.concatenate([tensor_rule(3).points, [[-1, -1], [-1, 1], [1, -1], [1, 1]]])
        lo = np.stack([ku[su], kv[sv]], axis=-1)[:, None, :]
        hi = np.stack([ku[su + 1], kv[sv + 1]], axis=-1)[:, None, :]
        theta = lo + 0.5 * (xi + 1.0) * (hi - lo)
        self.assert_same_bits(patch.surface, su[:, None], sv[:, None],
                              theta[..., 0], theta[..., 1], order)
        self.assert_same_bits(patch.surface, su[:, None], sv[:, None],
                              theta[:, :1, 0], theta[:, :1, 1], order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(ALL_SURFACES))
    def test_points_and_a_scalar(self, patches, name, order):
        """(n,) points with their own spans or all in one span pair, and a
        single scalar point."""
        s = patches[name].surface
        t = np.random.default_rng(order).random((50, 2))
        t[:4] = [[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [0.0, 1.0]]
        su, sv = find_spans(s.kv_u, t[:, 0]), find_spans(s.kv_v, t[:, 1])
        self.assert_same_bits(s, su, sv, t[:, 0], t[:, 1], order)
        self.assert_same_bits(s, int(su[2]), int(sv[2]), float(t[2, 0]), float(t[2, 1]), order)
        ku, kv = s.kv_u.knots, s.kv_v.knots
        t1 = ku[su[2]] + (ku[su[2] + 1] - ku[su[2]]) * t[:, 0]
        t2 = kv[sv[2]] + (kv[sv[2] + 1] - kv[sv[2]]) * t[:, 1]
        self.assert_same_bits(s, int(su[2]), int(sv[2]), t1, t2, order)


class TestRefinement:
    def test_refine_zero_times_is_identity(self):
        s = quarter_arc_strip()
        s2 = make_uniform(s, 1, 1)
        assert np.array_equal(s2.ctrl, s.ctrl)
        assert np.array_equal(s2.kv_u.knots, s.kv_u.knots)

    @pytest.mark.parametrize("mesh", [(0, 1), (-3, 1), (1, 0)])
    def test_empty_mesh_raises(self, mesh):
        with pytest.raises(ValueError, match="at least one element"):
            make_uniform(quarter_arc_strip(), *mesh)

    def test_knots_outside_the_unit_range_raise(self):
        s = quarter_arc_strip()
        kv = KnotVector([0, 0, 0, 2, 2, 2], 2)
        with pytest.raises(ValueError, match=r"expects knot ranges \[0, 1\]"):
            make_uniform(NurbsSurface(KV2, kv, s.ctrl, s.weights), 2, 2)

    def test_single_bisection_counts(self):
        s = quarter_arc_strip()
        s2 = make_uniform(s, 2, 1)
        assert np.allclose(s2.kv_u.knots, [0, 0, 0, 0.5, 1, 1, 1])
        assert s2.shape == (4, 3)

    def test_refined_geometry_unchanged(self):
        s = quarter_arc_strip()
        s3 = make_uniform(s, 8, 1)
        rng = np.random.default_rng(5)
        for t1, t2 in rng.random((100, 2)):
            r1, = surface_eval(s, t1, t2, order=0)
            r2, = surface_eval(s3, t1, t2, order=0)
            assert np.linalg.norm(r1 - r2) <= 1e-12 * (1 + np.linalg.norm(r1))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_insertion_commutes_with_evaluation(self, t1, t2):
        s = hemisphere_surface()
        s2 = make_uniform(s, 3, 5)
        ra, = surface_eval(s, t1, t2, order=0)
        rb, = surface_eval(s2, t1, t2, order=0)
        assert np.linalg.norm(ra - rb) <= 1e-12 * (1 + np.linalg.norm(ra))

    def test_make_uniform_power_of_two_equals_bisection(self):
        s = quarter_arc_strip()
        a = make_uniform(s, 8, 1)
        b = s
        for _ in range(3):
            k = b.kv_u.knots
            b = insert_knots(b, "u", [(k[i] + k[i + 1]) / 2.0 for i in range(b.kv_u.degree, b.kv_u.n_basis)])
        assert np.allclose(a.kv_u.knots, b.kv_u.knots, atol=0)
        assert np.allclose(a.ctrl, b.ctrl, atol=1e-15)

    def test_insertion_outside_the_open_range_raises(self):
        for value in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(DomainError):
                insert_knots(quarter_arc_strip(), "u", [value])

    def test_present_or_repeated_values_are_skipped(self):
        """Values within 1e-12 of a knot, present before the call or
        inserted earlier in it, change neither the knots nor the net."""
        s = make_uniform(quarter_arc_strip(), 4, 1)
        for got, expect in ((insert_knots(s, "u", [0.5, 0.25 + 1e-13, 0.5 - 1e-13]),
                             insert_knots(s, "u", [])),
                            (insert_knots(s, "u", [0.3, 0.3, 0.3 + 5e-13]),
                             insert_knots(s, "u", [0.3]))):
            assert np.array_equal(got.kv_u.knots, expect.kv_u.knots)
            assert np.array_equal(got.ctrl, expect.ctrl)
            assert np.array_equal(got.weights, expect.weights)

    @pytest.mark.parametrize("direction", ["w", "U", 0])
    def test_unknown_direction_raises(self, direction):
        with pytest.raises(ValueError, match="direction"):
            insert_knots(quarter_arc_strip(), direction, [0.5])

    def test_unsorted_nonuniform_v_insertion_keeps_the_geometry(self):
        s = make_uniform(hemisphere_surface(), 3, 2)
        s2 = insert_knots(s, "v", [0.83, 0.07, 0.61, 0.29])
        assert np.array_equal(s2.kv_v.knots, [0, 0, 0, 0.07, 0.29, 0.5, 0.61,
                                              0.83, 1, 1, 1])
        assert np.array_equal(s2.kv_u.knots, s.kv_u.knots)
        rng = np.random.default_rng(17)
        for t1, t2 in rng.random((60, 2)):
            r1, = surface_eval(s, t1, t2, order=0)
            r2, = surface_eval(s2, t1, t2, order=0)
            assert np.linalg.norm(r1 - r2) <= 1e-12 * (1 + np.linalg.norm(r1))

    def test_exact_conics_after_refinement(self):
        rng = np.random.default_rng(13)
        strip = make_uniform(strip_surface(), 8, 2)
        sphere = make_uniform(hemisphere_surface(), 8, 8)
        for t1, t2 in rng.random((50, 2)):
            r, = surface_eval(strip, t1, t2, order=0)
            assert abs(r[0] ** 2 + r[1] ** 2 - 100.0) < 1e-10 * 100.0
            r, = surface_eval(sphere, t1, t2, order=0)
            assert abs(r @ r - 100.0) < 1e-10 * 100.0

