"""Direct SPD solve: accuracy, residual enforcement, error classification."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError

import klshell.cases as cases
import klshell.solver as solver
from klshell import (IndefiniteSystemError, NumericalError, SingularSystemError,
                     solve_spd)
from klshell.cases import make_case, solve_case
from klshell.elements import Patch, apply_constraints, assemble, gauss_rule
from klshell.nurbs import make_uniform
from klshell.solver import _shifted_factor, relative_residual


@pytest.fixture
def counted(monkeypatch):
    """Count completed factorizations (band Cholesky and SuperLU alike) and
    the triangular solves made with them, at ``solver._factorize``."""
    counts = {"factorizations": 0, "solves": 0, "paths": []}
    real_factorize = solver._factorize

    class CountingFactor:
        def __init__(self, factor):
            self._factor = factor

        def solve(self, *args, **kwargs):
            counts["solves"] += 1
            return self._factor.solve(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._factor, name)

    def factorize(path, M):
        factor = real_factorize(path, M)
        counts["factorizations"] += 1
        counts["paths"].append(path)
        return CountingFactor(factor)

    monkeypatch.setattr(solver, "_factorize", factorize)
    return counts


def spd_system(n=40, seed=3):
    rng = np.random.default_rng(seed)
    B = rng.random((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n)), rng.random(n)


class TestBasicSolves:
    def test_identity(self):
        K = sp.identity(5, format="csr")
        F = np.zeros(5)
        F[0] = 1.0
        U = solve_spd(K, F).U
        assert np.allclose(np.asarray(U, float), F, atol=1e-15)

    def test_two_by_two_hand_solve(self):
        K = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        U = np.asarray(solve_spd(K, np.array([1.0, 1.0])).U, float)
        assert np.allclose(U, [1 / 3, 1 / 3], atol=1e-14)

    def test_zero_rhs(self):
        K = sp.identity(4, format="csr")
        U = solve_spd(K, np.zeros(4)).U
        assert np.all(np.asarray(U) == 0.0)

    def test_tiny_load_is_solved_exactly_scaled(self):
        """A load whose 2-norm underflows is still a load: the solve is the
        unit-scale solve scaled by the same power of two, bit for bit."""
        rng = np.random.default_rng(21)
        B = rng.random((30, 30))
        K = sp.csr_matrix(B @ B.T + 30 * np.eye(30))
        F = rng.standard_normal(30)
        unit, tiny = solve_spd(K, F), solve_spd(K, 2.0 ** -600 * F)
        assert np.any(tiny.U != 0.0)
        assert np.array_equal(tiny.U, 2.0 ** -600 * unit.U)
        assert (tiny.residual, tiny.floor, tiny.reason, tiny.path) == \
            (unit.residual, unit.floor, unit.reason, unit.path)


class TestResidualContract:
    def test_benchmark_residual(self, bench):
        """Moderate-slenderness solves certify the 1e-10 residual bound."""
        for slend in (1e1, 1e2):
            lvl = bench.strip_level("cas", 3, slend, 64)
            assert lvl.trace.residual <= 1e-10

    def test_ordering_independence(self):
        rng = np.random.default_rng(3)
        B = rng.random((40, 40))
        K = sp.csr_matrix(B @ B.T + 40 * np.eye(40))
        F = rng.random(40)
        U = np.asarray(solve_spd(K, F).U, float)
        perm = rng.permutation(40)
        P = sp.csr_matrix((np.ones(40), (np.arange(40), perm)), shape=(40, 40))
        Kp = sp.csr_matrix(P @ K @ P.T)
        Up = np.asarray(solve_spd(Kp, P @ F).U, float)
        back = P.T @ Up
        assert np.linalg.norm(back - U) <= 1e-8 * np.linalg.norm(U)

    def test_relative_residual_helper(self):
        K = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        F = np.array([2.0, 3.0])
        assert relative_residual(K, np.array([1.0, 1.0]), F) < 1e-15

    def test_relative_residual_of_a_zero_load_is_absolute(self):
        K = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert relative_residual(K, np.array([2.0, 1.0]), np.zeros(2)) == 5.0


class TestErrorClassification:
    @pytest.mark.parametrize("where,bad", [("F", np.nan), ("F", np.inf), ("K", np.nan),
                                           ("K", -np.inf)])
    def test_non_finite_input_raises_before_factoring(self, monkeypatch, where, bad):
        def unreachable(path, M):
            raise AssertionError("factored a non-finite system")

        monkeypatch.setattr(solver, "_factorize", unreachable)
        K, F = spd_system()
        if where == "K":
            K.data[7] = bad
        else:
            F[3] = bad
        with pytest.raises(ValueError, match=f"^{where} holds a NaN or an infinity"):
            solve_spd(K, F)

    def test_non_finite_pivot_is_not_clean(self):
        class Factor:
            U = sp.diags([1.0, np.nan, 2.0])

        assert not solver._pivots_clean(Factor())

    def test_vanishing_inverse_iterate_is_rank_deficient(self, monkeypatch):
        class Factor:
            def solve(self, b):
                return np.zeros_like(b)

        monkeypatch.setattr(solver, "_factorize", lambda path, M: Factor())
        with pytest.raises(SingularSystemError, match="^rank deficient: why$"):
            _shifted_factor(spd_system()[0], "why")

    def test_indefinite_raises(self):
        K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError):
            solve_spd(K, np.array([1.0, 1.0]))

    def test_singular_raises(self):
        K = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SingularSystemError):
            solve_spd(K, np.ones(3))

    def test_shifted_breakdown_raises(self, monkeypatch):
        """SuperLU breaking down on the shifted matrix too means singular;
        no other factorization is tried."""
        real_factorize = solver._factorize

        def superlu_breaks_down(path, M):
            if path == "superlu":
                raise RuntimeError("Factor is exactly singular")
            return real_factorize(path, M)

        monkeypatch.setattr(solver, "_factorize", superlu_breaks_down)
        with pytest.raises(SingularSystemError, match="exactly singular"):
            solve_spd(*spd_system())

    def test_semidefinite_with_orthogonal_load_is_tolerated(self):
        """A zero-energy mode orthogonal to the load does not block the solve."""
        B = np.diag([1.0, 2.0, 3.0, 0.0])
        Q, _ = np.linalg.qr(np.random.default_rng(5).random((4, 4)))
        K = sp.csr_matrix(Q @ B @ Q.T)
        F = K @ np.array([1.0, -1.0, 0.5, 2.0])  # in the range space
        U = np.asarray(solve_spd(K, np.asarray(F)).U, float)
        assert relative_residual(K, U, F) <= 1e-10


class TestFloorStop:
    """Refinement stops at the evaluation floor with one factorization."""

    @pytest.mark.parametrize("case_id,slenderness,mesh,reason", [
        ("hypar", 1e4, (32, 16), "floor"),
        ("hemisphere", 2.5e4, (16, 16), "floor"),
        ("hypar", 1e2, (32, 16), "rtol"),
    ])
    def test_single_factorization(self, counted, monkeypatch, case_id,
                                  slenderness, mesh, reason):
        solves = []
        real_solve = cases.solve_spd

        def solve_spd(K, F):
            trace = real_solve(K, F)
            solves.append((K, F, trace.U))
            return trace

        monkeypatch.setattr(cases, "solve_spd", solve_spd)
        res = solve_case(make_case(case_id, slenderness=slenderness), mesh, "cas")
        assert counted["factorizations"] == 1
        assert counted["solves"] <= 4
        assert res.trace.reason == reason
        (K, F, U), = solves
        floor = (np.finfo(np.longdouble).eps
                 * np.linalg.norm(abs(K) @ np.abs(np.asarray(U, float)))
                 / np.linalg.norm(F))
        assert res.trace.residual <= max(1e-10, floor)

    @staticmethod
    def _stalled_first_solve(counted, monkeypatch, K, F):
        """Solve with the first refinement reported as stalled at 1e-3."""
        real_refine, calls = solver._refine, []

        def stalled_first(*args):
            out = real_refine(*args)
            calls.append(out)
            return (1e-3, 0.0, out[2], out[3]) if len(calls) == 1 else out

        monkeypatch.setattr(solver, "_refine", stalled_first)
        trace = solver.solve_spd(K, F)
        assert len(calls) == 2 and trace.path == "shifted"
        assert relative_residual(K, trace.U, F) <= 1e-10
        assert trace.residual == relative_residual(K, trace.U, F)
        return counted["paths"]

    @staticmethod
    def _always_stalled_solve(counted, monkeypatch, K, F):
        monkeypatch.setattr(solver, "_refine",
                            lambda lu, Al, absA, F, *rest:
                            (1e-3, 0.0, np.zeros(len(F)), 1))
        with pytest.raises(NumericalError):
            solve_spd(K, F)
        return counted["paths"]

    def test_error_names_the_steps_taken(self, monkeypatch):
        """A factor whose corrections are zero never halves the residual:
        refinement stops after 30 steps without halving, and the error
        says so, with the factor it ran on."""
        class Stalled:
            def solve(self, b):
                return np.zeros_like(b)

        monkeypatch.setattr(solver, "_factor_checked", lambda A: (Stalled(), "superlu"))
        monkeypatch.setattr(solver, "_shifted_factor", lambda A, reason: Stalled())
        with pytest.raises(NumericalError, match="after 30 refinement steps on the "
                                                 "superlu factor"):
            solve_spd(*spd_system())

    def test_stall_above_floor_gets_the_shifted_retry(self, counted, monkeypatch):
        """A primary solve stalled above max(rtol, floor) is refactored shifted."""
        paths = self._stalled_first_solve(counted, monkeypatch, *spd_system())
        assert paths == ["superlu", "superlu"]

    def test_stall_above_floor_after_the_retry_raises(self, counted, monkeypatch):
        paths = self._always_stalled_solve(counted, monkeypatch, *spd_system())
        assert paths == ["superlu", "superlu"]

    def test_band_stall_gets_the_shifted_retry(self, counted, monkeypatch):
        """A stall on the band factor gets the same shifted SuperLU retry."""
        paths = self._stalled_first_solve(counted, monkeypatch, *banded_spd_system())
        assert paths == ["band", "superlu"]

    def test_band_stall_after_the_retry_raises(self, counted, monkeypatch):
        paths = self._always_stalled_solve(counted, monkeypatch, *banded_spd_system())
        assert paths == ["band", "superlu"]


class TestInverseIterationCertificate:
    """_shifted_factor separates semidefinite from indefinite systems."""

    @staticmethod
    def _matrix(smallest):
        rng = np.random.default_rng(20231)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        lam = np.linspace(1.0, 30.0, 30)
        lam[0] = smallest * lam.max()
        A = Q @ np.diag(lam) @ Q.T
        return sp.csr_matrix(0.5 * (A + A.T))

    def test_zero_eigenvalue_is_semidefinite(self):
        lu = _shifted_factor(self._matrix(0.0), "test")
        assert lu.shape == (30, 30)

    def test_negative_eigenvalue_is_indefinite(self):
        with pytest.raises(IndefiniteSystemError):
            _shifted_factor(self._matrix(-1e-6), "test")


def reduced_system(case_id, slenderness, mesh, kind="cas"):
    """The constrained (K, F) that ``solve_case`` hands to the solver."""
    case = make_case(case_id, slenderness=slenderness)
    patch = Patch(make_uniform(case.surface, *mesh))
    K, area = assemble(patch, case.material, gauss_rule(3), kind)
    reduced = apply_constraints(K, cases.build_loads(case, patch, 3, area),
                                *case.constraints(patch))
    return reduced.K, reduced.F


def grid_laplacian(m):
    """5-point Laplacian of an m x m grid with Dirichlet ends, natural order."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return sp.csr_matrix(sp.kron(sp.identity(m), T) + sp.kron(T, sp.identity(m)))


def banded_spd_system():
    """A grid Laplacian in natural order: banded, and wide enough for the band."""
    L = grid_laplacian(64)
    return L, np.random.default_rng(4).random(L.shape[0])


class TestBandCholesky:
    """Banded Cholesky is the primary factor; SuperLU takes what it refuses."""

    def test_band_path_matches_superlu(self, counted, monkeypatch):
        K, F = reduced_system("hypar", 1e2, (32, 16))
        band = solver.solve_spd(K, F)
        assert band.path == "band" and counted["paths"] == ["band"]
        monkeypatch.setattr(solver, "_upper_band", lambda K: None)
        lu = solver.solve_spd(K, F)
        assert lu.path == "superlu"
        Ub, Ul = (np.asarray(t.U, float) for t in (band, lu))
        assert np.linalg.norm(Ub - Ul) <= 1e-10 * np.linalg.norm(Ul)
        assert band.residual == relative_residual(K, band.U, F)

    def test_roundoff_pivot_is_rejected_by_the_band(self, counted):
        """A cas Scordelis-Lo roof passes the guard but stops Cholesky at a
        roundoff pivot of a zero-energy mode; SuperLU in symmetric mode
        solves it."""
        K, F = reduced_system("scordelis", 1e2, (16, 16))
        ab = solver._upper_band(K)
        assert ab is not None
        with pytest.raises(LinAlgError):
            solver._BandCholesky(ab)
        trace = solver.solve_spd(K, F)
        assert trace.path == "superlu" and counted["paths"] == ["superlu"]
        assert trace.residual <= max(1e-10, trace.floor)

    def test_small_systems_are_refused_and_solved(self, counted):
        """The certificate's semidefinite matrix (n 30) and a cas strip of 64
        elements are below the band-work floor; SuperLU solves them."""
        A = TestInverseIterationCertificate._matrix(0.0)
        systems = [(A, A @ np.random.default_rng(7).standard_normal(30)),
                   reduced_system("strip", 1e3, (64, 1))]
        for K, F in systems:
            assert solver._upper_band(K) is None
            trace = solver.solve_spd(K, F)
            assert trace.path != "band"
            assert relative_residual(K, trace.U, F) <= max(1e-10, trace.floor)
            assert trace.residual == relative_residual(K, trace.U, F)
        assert trace.path == "superlu"  # the cas strip
        assert "band" not in counted["paths"]

    def test_wide_band_goes_to_superlu_unbuilt(self, counted, monkeypatch):
        """A randomly permuted grid Laplacian couples far-apart indices: the
        guard sends it to SuperLU before any band storage is allocated."""
        bands, real_upper_band = [], solver._upper_band
        monkeypatch.setattr(solver, "_upper_band",
                            lambda K: bands.append(real_upper_band(K)) or bands[-1])
        m = 64
        L = grid_laplacian(m)
        perm = np.random.default_rng(11).permutation(m * m)
        Lp = sp.csr_matrix(L[perm][:, perm])
        F = np.ones(m * m)
        natural = solver.solve_spd(L, F)
        permuted = solver.solve_spd(Lp, F[perm])
        assert bands[0].shape == (m + 1, m * m) and bands[1] is None
        assert natural.path == "band" and permuted.path == "superlu"
        assert counted["paths"] == ["band", "superlu"]
        back = np.empty(m * m)
        back[perm] = np.asarray(permuted.U, float)
        U = np.asarray(natural.U, float)
        assert np.linalg.norm(back - U) <= 1e-10 * np.linalg.norm(U)

    def test_duplicate_entries_are_summed_before_the_band(self, counted):
        """The band is written entry by entry, so a CSR input that stores an
        entry twice is summed first: every entry stored as two exact halves
        solves bitwise as the canonical matrix."""
        L, F = banded_spd_system()
        A = sp.csr_matrix((np.repeat(L.data / 2, 2), np.repeat(L.indices, 2),
                           2 * L.indptr), shape=L.shape)
        assert not A.has_canonical_format
        halves, whole = solver.solve_spd(A, F), solver.solve_spd(L, F)
        assert counted["paths"] == ["band", "band"]
        assert np.array_equal(halves.U, whole.U)
