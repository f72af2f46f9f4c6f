"""Numerics for spheres of constant and almost-constant mean curvature in
hyperbolic 3-space: half-space geometry, chart discretization of the sphere,
the explicit solution family, its linearization and spectra, the reduced
volume functional, and the perturbative solver."""

from .halfspace import (HyperbolicPoint, EuclideanBall, dist, ball_to_euclidean,
                        translate, ball_quadrature, hyperbolic_ball_volume)
from .chart import (SphereGrid, SphereField, build_grid, omega_mu, integrate,
                    differentiate, project_P, cm_norm, omega_field,
                    constant_field)
from .bubbles import (CurvatureParams, make_params, bubble, MoebiusMap,
                      TangentFrame, tangent_frame, tangent_project)
from .linearized import (LinearizedSystem, SpectrumReport, j_residual,
                         assemble_linearized, normal_operator,
                         tangential_quadratic_form, spectrum_normal, kernel)
from .melnikov import (MelnikovResult, f_value, f_gradient, find_critical,
                       monotone_obstruction, check_box)
from .energy import (build_Q, volume_V, energy_E,
                     first_variation, conformality_residual, horosphere_energy)
from .reduction import (ReductionState, correct, reduced_gradient,
                        interaction_matrix, continuation, check_schedule,
                        verify_side1)
from .phi_expr import PrescribedFunction, parse_phi, phi_to_prescribed
from .errors import (NumericsError, AmbiguousKernelError, ConvergenceError,
                     NoCriticalPointError)

__version__ = "0.1.0"
