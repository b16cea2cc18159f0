"""Learned modified vector fields for one-step integrators.

A numerical method of order p applied to a perturbed field

    f_app(y, h) = f(y) + h^p (corrections)

can follow the exact flow of ``f`` far more accurately than the method
alone.  This package provides the analytic correction terms (Taylor-jet
based, derived by order matching for any Runge-Kutta tableau),
neural-network approximations of the corrections trained through the
integrator step, grid estimates of the theorem's global error bound, and
a benchmark CLI.
"""

from .errors import (ConditioningError, DomainSamplingError, FixedPointError,
                     IntegrationFailureError, ModfieldError,
                     StageOverflowError, TrainingDivergedError,
                     UnsupportedTruncationError)
from .integrators import (ButcherTableau, ErrorBoundInputs, Trajectory,
                          adaptive_flow_batch, box_grid, canonical_scheme,
                          dopri5_integrate, estimate_lipschitz, get_stepper,
                          get_tableau, implicit_midpoint_step, integrate,
                          order_estimate, rk_step, scheme_names,
                          theorem_bound)
from .jets import Jet, directional_derivative
from .modified_field import TruncatedModifiedField, truncated_field
from .neural import (AdamState, MlpParams, ModifiedFieldModel, adam_update,
                     init_model, load_model, mlp_forward, mlp_init,
                     save_model, scheme_step, step_loss, step_loss_and_grad)
from .systems import (DomainBox, VectorFieldSpec, get_system, pendulum_field,
                      reference_trajectory, rigid_body_field, system_names)
from .training import (Dataset, DatasetRecord, LossReport, TrainConfig,
                       alt_extract_targets, alt_train,
                       build_alt_training_data, generate_dataset, get_preset,
                       learning_error_delta, load_config, load_dataset,
                       parse_config, save_config, save_dataset,
                       split_dataset, train)

__version__ = "0.1.0"
