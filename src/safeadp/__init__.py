"""Safe output-feedback model-based RL: projection observer, robust recentered
barrier cost, saturated critic-only adaptive controller, and the simulation
harness that ties them together."""

from .critic import (Basis, LearningConfig, bellman_error,
                     critic_derivatives, excitation_level,
                     extrapolation_terms, quadratic_basis_2d,
                     saturated_policy)
from .config import RunConfig, build_problem, load_config
from .lmi import (LmiCertificate, LmiProblem, SearchParams,
                  assemble_lmi_matrix, synthesize_gains, verify_gains)
from .model import (DomainSet, SystemModel, audit_jacobian_bounds,
                    augmented_dynamics, drift, effectiveness, vamvoudakis2d)
from .observer import ObserverGains, error_envelope, observer_rhs
from .presets import PRESET_NAMES, preset
from .safety import (BarrierDomainError, SafetySpec, circular_obstacle,
                     lipschitz_audit, parabola_interior)
from .sim import ControlProblem, SimConfig, TrajectoryLog, run

__version__ = "0.1.0"
