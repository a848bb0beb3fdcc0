"""Split hypercomplex nonlinear adaptive FIR filtering over Cl(p,q)."""

from .activations import (
    ACTIVATIONS,
    IDENTITY,
    LOGISTIC,
    TANH,
    Activation,
    get_activation,
    split_apply_amplitude,
)
from .algebra import (
    Multivector,
    ProductTable,
    Signature,
    SignatureMismatchError,
    blade_grade,
    blade_label,
    blade_product,
    format_multivector,
    parse_multivector,
    product_table,
)
from .experiments import (
    RunReport,
    RunSummary,
    SignalSpec,
    StepRow,
    emit_csv,
    generate_signal,
    parse_csv,
    run_training,
)
from .filtering import (
    ConvergenceReport,
    FilterConfig,
    FilterState,
    NonFiniteSignalError,
    StepRecord,
    ZeroPriorError,
    aashafa_step,
    convergence_factor,
    cost_gradient,
    forward,
    init_state,
    lambda_bound,
    load_state,
    mu_bound,
    net_input,
    save_state,
    shafa_step,
    state_from_text,
    state_to_text,
    window_energy,
)
from .geometry import (
    IsotropicBladeError,
    blade_inverse,
    dual,
    ipns_member,
    left_contraction,
    opns_member,
    outer_product,
    project,
    project_blade,
    pseudoscalar,
    reject,
    right_contraction,
)

__version__ = "0.1.0"
