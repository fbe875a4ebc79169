"""Quadratic NURBS Kirchhoff-Love shell kernel and benchmark suite."""

from .elements import (CAS, CS, Patch, QuadratureRule, apply_constraints,
                       assemble, gauss_rule, load_area, load_edge_line,
                       load_point, tensor_rule)
from .errors import (DomainError, IndefiniteSystemError, NumericalError,
                     SingularGeometryError, SingularSystemError)
from .fields import (SolutionField, displacement_at, energies, l2_resultant_error,
                     sample, write_field)
from .nurbs import KnotVector, NurbsSurface, insert_knots, make_uniform, surface_eval
from .shell import ShellMaterial
from .solver import solve_spd

__version__ = "0.1.0"
