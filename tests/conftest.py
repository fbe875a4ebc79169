"""Shared fixtures: benchmark geometries and cached heavy sweeps."""

import numpy as np
import pytest

from klshell.cases import make_case, solve_case
from klshell.elements import gauss_rule
from klshell.fields import energies, l2_resultant_error


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
        """Strip solve with L2 resultant errors and energies, memoized."""
        key = (kind, quad, slenderness, n_el)
        if key not in self._strip:
            case, res = self.solve("strip", slenderness, (n_el, 1), kind, quad)
            e_n11, e_m11 = l2_resultant_error(
                res.solution, (case.analytic["n11"], case.analytic["m11"]), ("n11", "m11"))
            rep = energies(res.solution, gauss_rule(quad))
            self._strip[key] = {
                "deflection": res.deflection, "normalized": res.normalized,
                "e_n11": e_n11, "e_m11": e_m11, "residual": res.residual,
                "Em": rep.Em, "Eb": rep.Eb, "Et": rep.Et,
            }
        return self._strip[key]

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
