"""Shared fixtures: benchmark geometries and cached heavy sweeps."""

import numpy as np
import pytest

from klshell.cases import make_case, run_convergence, solve_case
from klshell.elements import Patch, _batch_eval


def strip_surface():
    return make_case("strip").surface


def hemisphere_surface():
    return make_case("hemisphere").surface


def scordelis_surface():
    return make_case("scordelis").surface


def hypar_surface():
    return make_case("hypar").surface


ALL_SURFACES = {
    "strip": strip_surface,
    "hemisphere": hemisphere_surface,
    "scordelis": scordelis_surface,
    "hypar": hypar_surface,
}


def basis_at(surface, t1, t2):
    """Rational basis, geometry and frame arrays at one parametric point.

    Evaluates in the element that contains the point (``Patch.locate``).
    Returns a dict with N, N1, N2, N11, N22, N12 of shape (nfun,), r, r1,
    r2, r11, r22, r12 of shape (3,), the ``frame_arrays`` entries of the
    point, and conn (nfun,), the control point indices of the basis
    functions.
    """
    patch = Patch(surface)
    theta = np.array([[t1, t2]], dtype=float)
    ev = _batch_eval(patch, patch.locate(theta), theta[:, None, :])
    return {k: v[0] if k == "conn" else v[0, 0] for k, v in ev.items() if k != "eids"}


class BenchCache:
    """Memoized benchmark solves shared across test modules."""

    def __init__(self):
        self._solves = {}
        self._strip = {}

    def solve(self, case_id, slenderness, mesh, kind, quad=3):
        key = (case_id, slenderness, mesh, kind, quad)
        if key not in self._solves:
            case = make_case(case_id, slenderness=slenderness)
            self._solves[key] = (case, solve_case(case, mesh, kind, quad))
        return self._solves[key]

    def strip_level(self, kind, quad, slenderness, n_el):
        """Strip result with L2 resultant errors and energies, as the CLI's
        sweep reports it: levels 0-7 of one memoized ``run_convergence``
        are 2-256 elements."""
        key = (kind, quad, slenderness)
        if key not in self._strip:
            case = make_case("strip", slenderness=slenderness)
            self._strip[key] = {res.mesh[0]: res
                                for res in run_convergence(case, kind, quad, 8)}
        return self._strip[key][n_el]

    def strip_sweep(self, kind, quad, slenderness, n_els=(2, 4, 8, 16, 32, 64, 128, 256)):
        return {n: self.strip_level(kind, quad, slenderness, n) for n in n_els}


@pytest.fixture(scope="session")
def bench():
    return BenchCache()


def slope_last3(n_els, errors):
    """Least-squares slope of log2(error) against log2(n) over the last three levels."""
    x = np.log2(np.asarray(n_els[-3:], dtype=float))
    y = np.log2(np.asarray(errors[-3:], dtype=float))
    return -np.polyfit(x, y, 1)[0]
