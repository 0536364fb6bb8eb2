"""Finite-volume gradient-flow laboratory.

Meshes, reference measures and face weights, entropy/action/Fisher
functionals, the dual action, the discrete Fokker-Planck flow, structural
diagnostics, and reproducible convergence studies.
"""

from .mesh import (Mesh, MeshError, Domain, build_interval_mesh,
                   build_cartesian_mesh, build_voronoi_mesh,
                   regularity_report, isotropy_defect)
from .reference import (Potential, DiscreteMeasure, FaceWeights,
                        discretize_reference, face_weights, project_measure,
                        project_function, zero_potential, linear_potential,
                        quadratic_potential, double_well_potential,
                        read_measure_csv)
from .functionals import (log_mean, mean_value, entropy, action, fisher,
                          fisher_sqrt_gap, dirichlet_energy)
from .dual_action import OnsagerOperator, assemble_onsager, dual_action
from .dynamics import (Generator, Trajectory, assemble_generator,
                       build_generator, step_implicit_euler,
                       step_crank_nicolson, solve_trajectory)
from .diagnostics import (condition_report, good_path, path_constants,
                          l2_holder_modulus)
from .experiments import (MeshFamily, StudyResult, uniform_interval_family,
                          cartesian_family, jittered_voronoi_family,
                          flattened_voronoi_family, gamma_energy_study,
                          gamma_affine_minimization_study, edi_audit,
                          evolutionary_convergence_study, wasserstein_1d,
                          lower_bound_trend_study, isotropy_study, Density1D,
                          continuous_dirichlet)

__version__ = "0.1.0"
