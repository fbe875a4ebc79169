"""Direct SPD solve: accuracy, residual enforcement, error classification."""

import numpy as np
import pytest
import scipy.sparse as sp

import klshell.cases as cases
import klshell.solver as solver
from klshell import (IndefiniteSystemError, NumericalError, SingularSystemError,
                     SparseSymmetric, solve_spd)
from klshell.cases import make_case, solve_case
from klshell.solver import _shifted_factor, relative_residual


@pytest.fixture
def counted(monkeypatch):
    """Count factorizations and triangular solves made through ``splu``."""
    counts = {"factorizations": 0, "solves": 0}
    real_splu = solver.splu

    class CountingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            counts["solves"] += 1
            return self._lu.solve(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def splu(*args, **kwargs):
        counts["factorizations"] += 1
        return CountingLU(real_splu(*args, **kwargs))

    monkeypatch.setattr(solver, "splu", splu)
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
        U = solve_spd(K, F)
        assert np.allclose(np.asarray(U, float), F, atol=1e-15)

    def test_two_by_two_hand_solve(self):
        K = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        U = np.asarray(solve_spd(K, np.array([1.0, 1.0])), float)
        assert np.allclose(U, [1 / 3, 1 / 3], atol=1e-14)

    def test_zero_rhs(self):
        K = sp.identity(4, format="csr")
        U = solve_spd(K, np.zeros(4))
        assert np.all(np.asarray(U) == 0.0)

    def test_sparse_symmetric_round_trip(self):
        rng = np.random.default_rng(0)
        B = rng.random((6, 6))
        K = sp.csr_matrix(B @ B.T + 6 * np.eye(6))
        S = SparseSymmetric.from_csr(K)
        assert S.n == 6
        assert np.allclose(S.to_csr().toarray(), K.toarray(), atol=1e-15)
        assert np.array_equal(S.upper.toarray(), np.triu(S.to_csr().toarray()))
        assert S.nnz == 21


class TestResidualContract:
    def test_benchmark_residual(self, bench):
        """Moderate-slenderness solves certify the 1e-10 residual bound."""
        for slend in (1e1, 1e2):
            lvl = bench.strip_level("cas", 3, slend, 64)
            assert lvl["residual"] <= 1e-10

    def test_ordering_independence(self):
        rng = np.random.default_rng(3)
        B = rng.random((40, 40))
        K = sp.csr_matrix(B @ B.T + 40 * np.eye(40))
        F = rng.random(40)
        U = np.asarray(solve_spd(K, F), float)
        perm = rng.permutation(40)
        P = sp.csr_matrix((np.ones(40), (np.arange(40), perm)), shape=(40, 40))
        Kp = sp.csr_matrix(P @ K @ P.T)
        Up = np.asarray(solve_spd(Kp, P @ F), float)
        back = P.T @ Up
        assert np.linalg.norm(back - U) <= 1e-8 * np.linalg.norm(U)

    def test_relative_residual_helper(self):
        K = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        F = np.array([2.0, 3.0])
        assert relative_residual(K, np.array([1.0, 1.0]), F) < 1e-15


class TestErrorClassification:
    def test_indefinite_raises(self):
        K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError):
            solve_spd(K, np.array([1.0, 1.0]))

    def test_singular_raises(self):
        K = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SingularSystemError):
            solve_spd(K, np.ones(3))

    def test_semidefinite_with_orthogonal_load_is_tolerated(self):
        """A zero-energy mode orthogonal to the load does not block the solve."""
        B = np.diag([1.0, 2.0, 3.0, 0.0])
        Q, _ = np.linalg.qr(np.random.default_rng(5).random((4, 4)))
        K = sp.csr_matrix(Q @ B @ Q.T)
        F = K @ np.array([1.0, -1.0, 0.5, 2.0])  # in the range space
        U = np.asarray(solve_spd(K, np.asarray(F)), float)
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
        solves, reasons = [], []
        real_solve, real_refine = cases.solve_spd, solver._refine

        def solve_spd(K, F):
            U = real_solve(K, F)
            solves.append((K.to_csr(), F, U))
            return U

        def refine(*args):
            out = real_refine(*args)
            reasons.append(out[3])
            return out

        monkeypatch.setattr(cases, "solve_spd", solve_spd)
        monkeypatch.setattr(solver, "_refine", refine)
        res = solve_case(make_case(case_id, slenderness=slenderness), mesh, "cas")
        assert counted["factorizations"] == 1
        assert counted["solves"] <= 4
        assert reasons == [reason]
        (K, F, U), = solves
        floor = (np.finfo(np.longdouble).eps
                 * np.linalg.norm(abs(K) @ np.abs(np.asarray(U, float)))
                 / np.linalg.norm(F))
        assert res.residual <= max(1e-10, floor)

    def test_stall_above_floor_gets_the_shifted_retry(self, counted, monkeypatch):
        """A primary solve stalled above max(rtol, floor) is refactored shifted."""
        real_refine, calls = solver._refine, []

        def stalled_first(*args):
            out = real_refine(*args)
            calls.append(out[3])
            return (1e-3, 0.0, out[2], "stall") if len(calls) == 1 else out

        monkeypatch.setattr(solver, "_refine", stalled_first)
        K, F = spd_system()
        U = solve_spd(K, F)
        assert counted["factorizations"] == 2 and len(calls) == 2
        assert relative_residual(K, U, F) <= 1e-10

    def test_stall_above_floor_after_the_retry_raises(self, counted, monkeypatch):
        monkeypatch.setattr(solver, "_refine",
                            lambda lu, Al, absA, F, *rest:
                            (1e-3, 0.0, np.zeros(len(F)), "stall"))
        K, F = spd_system()
        with pytest.raises(NumericalError):
            solve_spd(K, F)
        assert counted["factorizations"] == 2


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
