"""Learning-theory audits for a non-irreducible, Wasserstein-contractive
Markov chain: exact kernels and optimal transport, epsilon-net learners,
closed-form tail bounds, and Monte Carlo experiments comparing the two.
"""

from .state_space import (
    DiscreteMeasure,
    SpaceDescriptor,
    StatePoint,
    TargetFunction,
    curve_diameter,
    graph_point,
    make_space,
    make_target,
    rho,
)
from .chain import (
    ContractiveChain,
    DyadicState,
    invariant_measure,
    lemma_atom_check,
    n_step_kernel,
    trajectory_exact,
)
from .transport import (
    contraction_audit,
    kr_dual_lower,
    wasserstein1_exact,
    wasserstein1_monotone_upper,
)
from .hypothesis import (
    HatMoments,
    Hypothesis,
    HypothesisClass,
    HypothesisNet,
    build_epsilon_net,
    covering_bound_holder,
    class_metric,
    net_covering_probe,
)
from .loss import LossConstants, loss_composite, loss_constants, verify_a2
from .learner import empirical_error, opt_pi, true_error
from .bounds import (
    ModelConstants,
    ergodicity_constants,
    n1,
    n2,
    n3,
    poisson_estimate,
    poisson_residual_check,
    relative_tail_bound,
    single_h_tail_bound,
    uniform_tail_bound,
    xi_constants,
)
from .harness import ExperimentConfig, Report, run_experiment, write_report

__version__ = "0.1.0"
