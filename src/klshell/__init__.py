"""Quadratic NURBS Kirchhoff-Love shell kernel and benchmark suite."""

from .elements import (CAS, CS, LinearConstraint, Patch, QuadratureRule,
                       apply_constraints, assemble, gauss_rule, load_area,
                       load_edge_line, load_point, tensor_rule)
from .errors import (DomainError, IndefiniteSystemError, NumericalError,
                     SingularGeometryError, SingularSystemError)
from .fields import (EnergyReport, SolutionField, displacement_at, energies,
                     l2_resultant_error, resultants_at, write_field)
from .nurbs import (KnotVector, NurbsSurface, basis_ders, find_span,
                    insert_knots, load_surface, make_uniform, refine_uniform,
                    save_surface, surface_eval, surface_from_text,
                    surface_to_text)
from .shell import ShellMaterial
from .solver import solve_spd

__version__ = "0.1.0"
