"""Nonlinear adaptive FIR filtering over Cl(p,q) with split activations.

The filter holds L multivector weights w_1..w_L.  For a window of the L most
recent input samples (most recent first) the net input is

    s = sum_l  w_l x_{m-l+1}        (geometric products)

and the output is the amplitude-scaled split activation y_A = lambda_A
phi(s_A).  Training minimizes the squared error E = sum_A (d_A - y_A)^2 by
gradient descent; the algebra-valued derivative of E with respect to the
weights collapses to

    grad_l = -2 [ sum_A e_A lambda_A phi'(s_A) e_A ] (x_{m-l+1})~

so one step moves every tap by mu * F * x~ with the error direction
F = sum_A e_A lambda_A phi'(s_A) e_A.  `shafa_step` implements this update
for any signature, `sqafa_step` replays it on Cl(0,2) through the explicit
16-term quaternion product expansion as a formula-level cross-check, and
`aashafa_step` additionally trains the per-component amplitudes.

Step-size safety comes from the first-order error recursion
|e_post|^2 = |e_prior|^2 (1 - M): `convergence_factor` evaluates M and
`mu_bound` the step-size ceiling 1 / (2 |x~.x| |P|^2) that keeps 0 < M < 1;
`lambda_bound` gives the matching per-component amplitude stability limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .activations import Activation, get_activation, split_apply_amplitude
from .algebra import Multivector, Signature, format_multivector, parse_multivector, product_table

#: Returned by mu_bound when |P|^2 |x~.x| is degenerate (no gradient signal).
MU_BOUND_CAP = 1.0
#: Returned by lambda_bound when its denominator is degenerate.
LAMBDA_BOUND_CAP = 1e6
#: x~.x counts as scalar when its non-scalar part is below this, relatively.
SCALAR_XX_RTOL = 1e-12
_DEGENERATE = 1e-12

QUATERNION_SIG = Signature(0, 2)


class NonFiniteSignalError(ValueError):
    """Raised when a training step receives non-finite samples or targets."""


class WrongSignatureError(ValueError):
    """Raised when a quaternion-only operation sees a non-Cl(0,2) input."""


class ZeroPriorError(ValueError):
    """Raised when the convergence factor is requested for a zero prior error."""


@dataclass
class FilterConfig:
    """Training configuration.

    Exactly one of ``mu`` (fixed step size) and ``mu_auto_frac`` (fraction of
    the per-step convergence bound) must be set.
    ``adaptive_amplitude`` must be True exactly when the run's algorithm is
    AASHAFA; `run_training` rejects a config that disagrees with its ``algo``.
    """

    sig: Signature
    taps: int
    activation: Activation | str = "tanh"
    mu: float | None = None
    mu_auto_frac: float | None = 0.1
    rho: float = 0.0
    adaptive_amplitude: bool = False
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.activation, str):
            self.activation = get_activation(self.activation)
        if self.taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.mu is not None:
            self.mu_auto_frac = None
            if self.mu <= 0:
                raise ValueError("fixed step size mu must be positive")
        elif self.mu_auto_frac is None:
            raise ValueError("set either mu or mu_auto_frac")
        elif not 0.0 < self.mu_auto_frac < 1.0:
            raise ValueError("mu_auto_frac must lie in (0, 1)")
        if self.rho < 0:
            raise ValueError("amplitude learning rate rho must be >= 0")


@dataclass(frozen=True)
class FilterState:
    """Filter value state: L weights, per-component amplitudes, step counter."""

    weights: tuple[Multivector, ...]
    amplitudes: np.ndarray
    step: int = 0

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one weight")
        sig = self.weights[0].sig
        if any(w.sig != sig for w in self.weights):
            raise ValueError("all weights must share one signature")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (sig.dim,):
            raise ValueError(f"need {sig.dim} amplitudes for {sig}, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sig(self) -> Signature:
        return self.weights[0].sig

    @property
    def taps(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class StepRecord:
    """Per-step signals: net input, output, error, cost, applied update."""

    s: Multivector
    y: Multivector
    e: Multivector
    cost: float
    delta_w: tuple[Multivector, ...]
    mu_used: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics of the first-order error recursion |e+|^2 = |e-|^2 (1 - M)."""

    p_sq: float
    f: Multivector
    m_factor: float
    mu_bound: float
    xx: Multivector
    xx_is_scalar: bool


def init_state(config: FilterConfig) -> FilterState:
    """Seeded start state: coefficients uniform in [-0.1, 0.1], amplitudes 1.

    The small symmetric init keeps bounded activations in their near-linear
    region where phi' is close to 1.
    """
    rng = np.random.default_rng(config.seed)
    dim = config.sig.dim
    weights = tuple(
        Multivector._own(config.sig, rng.uniform(-0.1, 0.1, size=dim))
        for _ in range(config.taps)
    )
    return FilterState(weights=weights, amplitudes=np.ones(dim), step=0)


# ---------------------------------------------------------------------------
# forward path


def _check_window(weights: Sequence[Multivector], window: Sequence[Multivector]) -> Signature:
    if len(window) != len(weights):
        raise ValueError(f"window length {len(window)} != tap count {len(weights)}")
    sig = weights[0].sig
    for x in window:
        if x.sig != sig:
            raise ValueError(f"window sample signature {x.sig} != weight signature {sig}")
    return sig


def net_input(weights: Sequence[Multivector], window: Sequence[Multivector]) -> Multivector:
    """s = sum_l w_l x_{m-l+1}; window is most recent sample first."""
    sig = _check_window(weights, window)
    table = product_table(sig)
    acc = np.zeros(sig.dim)
    for w, x in zip(weights, window):
        acc += table.multiply(w.coeffs, x.coeffs)
    return Multivector._own(sig, acc)


def forward(state: FilterState, window: Sequence[Multivector], phi: Activation) -> tuple[Multivector, Multivector]:
    """Filter output and net input: y_A = lambda_A phi(s_A)."""
    s = net_input(state.weights, window)
    y = split_apply_amplitude(state.amplitudes, phi, s)
    return y, s


def _error_direction(e: Multivector, s: Multivector, lambdas: np.ndarray, phi: Activation) -> Multivector:
    # F = sum_A e_A lambda_A phi'(s_A) e_A
    return Multivector._own(e.sig, e.coeffs * lambdas * phi.deriv(s.coeffs))


def cost_gradient(
    state: FilterState, window: Sequence[Multivector], d: Multivector, phi: Activation
) -> list[Multivector]:
    """Algebra-valued derivative of E per tap: grad_l = -2 F (x_{m-l+1})~."""
    y, s = forward(state, window, phi)
    e = d - y
    f = _error_direction(e, s, state.amplitudes, phi)
    return [(f * x.involution()) * -2.0 for x in window]


def window_energy(window: Sequence[Multivector]) -> Multivector:
    """x~.x = sum_l (x_l)~ x_l; its scalar part is the window energy sum |x_l|^2.

    Scalar for the complex and quaternion algebras, but not in general.
    """
    sig = window[0].sig
    table = product_table(sig)
    acc = np.zeros(sig.dim)
    for x in window:
        acc += table.multiply(x.involution().coeffs, x.coeffs)
    return Multivector._own(sig, acc)


# ---------------------------------------------------------------------------
# training steps


def _check_finite(window: Sequence[Multivector], d: Multivector) -> None:
    if not all(x.is_finite() for x in window) or not d.is_finite():
        raise NonFiniteSignalError("window samples and target must be finite")


def shafa_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[FilterState, StepRecord]:
    """One gradient-descent weight update w_l += mu F (x_{m-l+1})~.

    Amplitudes are left untouched; with all-ones amplitudes this is the plain
    split hypercomplex adaptive filtering update.
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    _check_finite(window, d)
    y, s = forward(state, window, phi)
    e = d - y
    f = _error_direction(e, s, state.amplitudes, phi)
    delta = tuple(mu * (f * x.involution()) for x in window)
    new_weights = tuple(w + dw for w, dw in zip(state.weights, delta))
    record = StepRecord(s=s, y=y, e=e, cost=float(np.dot(e.coeffs, e.coeffs)), delta_w=delta, mu_used=mu)
    return replace(state, weights=new_weights, step=state.step + 1), record


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Explicit 16-term quaternion product on (r, i, j, k) component arrays.
    ar, ai, aj, ak = a
    br, bi, bj, bk = b
    return np.array(
        [
            ar * br - ai * bi - aj * bj - ak * bk,
            ar * bi + ai * br + aj * bk - ak * bj,
            ar * bj + aj * br + ak * bi - ai * bk,
            ar * bk + ak * br + ai * bj - aj * bi,
        ]
    )


def _qconj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


def sqafa_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[FilterState, StepRecord]:
    """Quaternion-only update through the explicit component expansion.

    Exists as an independent formula-level cross-check of `shafa_step` on
    Cl(0,2); the bitmask order of Cl(0,2) coefficients is exactly
    (real, i, j, k) under 1, e1, e2, e12.
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    sig = state.sig
    if sig != QUATERNION_SIG:
        raise WrongSignatureError(f"sqafa_step needs Cl(0,2), got {sig}")
    _check_window(state.weights, window)
    _check_finite(window, d)

    lam = state.amplitudes
    s4 = np.zeros(4)
    for w, x in zip(state.weights, window):
        s4 = s4 + _qmul(w.coeffs, x.coeffs)
    y4 = lam * phi.func(s4)
    e4 = d.coeffs - y4
    f4 = e4 * lam * phi.deriv(s4)
    delta = tuple(
        Multivector._own(sig, mu * _qmul(f4, _qconj(x.coeffs))) for x in window
    )
    new_weights = tuple(w + dw for w, dw in zip(state.weights, delta))
    record = StepRecord(
        s=Multivector._own(sig, s4),
        y=Multivector._own(sig, y4),
        e=Multivector._own(sig, e4),
        cost=float(np.dot(e4, e4)),
        delta_w=delta,
        mu_used=mu,
    )
    return replace(state, weights=new_weights, step=state.step + 1), record


def aashafa_step(
    state: FilterState,
    window: Sequence[Multivector],
    d: Multivector,
    mu: float,
    rho: float,
    phi: Activation,
) -> tuple[FilterState, StepRecord]:
    """Adaptive-amplitude step: trains weights and per-component amplitudes.

    Both updates are evaluated from the same pre-step forward pass:

        lambda_A += rho e_A phi(s_A)          (unit-amplitude phi)
        w_l      += mu  F (x_{m-l+1})~        (F built with the old lambdas)
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    if rho < 0:
        raise ValueError("amplitude learning rate rho must be >= 0")
    _check_finite(window, d)
    y, s = forward(state, window, phi)
    e = d - y
    lam = state.amplitudes
    new_lam = lam + rho * e.coeffs * phi.func(s.coeffs)
    f = _error_direction(e, s, lam, phi)
    delta = tuple(mu * (f * x.involution()) for x in window)
    new_weights = tuple(w + dw for w, dw in zip(state.weights, delta))
    record = StepRecord(s=s, y=y, e=e, cost=float(np.dot(e.coeffs, e.coeffs)), delta_w=delta, mu_used=mu)
    return FilterState(weights=new_weights, amplitudes=new_lam, step=state.step + 1), record


# ---------------------------------------------------------------------------
# convergence monitoring


def _xx_parts(xx: Multivector) -> tuple[float, float, bool]:
    xx_mod = xx.modulus()
    scalar = float(xx.coeffs[0])
    rest = xx.coeffs.copy()
    rest[0] = 0.0
    is_scalar = float(np.linalg.norm(rest)) <= SCALAR_XX_RTOL * xx_mod
    return xx_mod, scalar, is_scalar


def mu_bound(
    window: Sequence[Multivector], s: Multivector, phi: Activation, lambdas: np.ndarray
) -> float:
    """Step-size ceiling 1 / (2 |x~.x| |P|^2) with P_B = lambda_B phi'(s_B).

    When x~.x is scalar (within tolerance) the modulus equals its scalar
    part, matching the scalar-case form of the bound.  Degenerate windows
    (zero energy or zero slope) return MU_BOUND_CAP instead of infinity.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    p = lambdas * phi.deriv(s.coeffs)
    p_sq = float(np.dot(p, p))
    xx = window_energy(window)
    xx_mod, xx_scalar, is_scalar = _xx_parts(xx)
    magnitude = xx_scalar if is_scalar else xx_mod
    if p_sq * xx_mod < _DEGENERATE:
        return MU_BOUND_CAP
    return 1.0 / (2.0 * magnitude * p_sq)


def convergence_factor(
    window: Sequence[Multivector],
    e_prior: Multivector,
    s: Multivector,
    phi: Activation,
    lambdas: np.ndarray,
    mu: float,
) -> ConvergenceReport:
    """Evaluate M = (2 mu / |e|^2) sum_l |F (x_l)~|^2 and the step bound.

    Stability of the first-order error recursion requires 0 < M < 1.
    """
    e_sq = float(np.dot(e_prior.coeffs, e_prior.coeffs))
    if e_sq == 0.0:
        raise ZeroPriorError("convergence factor undefined for zero prior error")
    lambdas = np.asarray(lambdas, dtype=float)
    f = _error_direction(e_prior, s, lambdas, phi)
    total = 0.0
    for x in window:
        fx = f * x.involution()
        total += float(np.dot(fx.coeffs, fx.coeffs))
    m_factor = 2.0 * mu * total / e_sq
    p = lambdas * phi.deriv(s.coeffs)
    xx = window_energy(window)
    _, _, is_scalar = _xx_parts(xx)
    return ConvergenceReport(
        p_sq=float(np.dot(p, p)),
        f=f,
        m_factor=m_factor,
        mu_bound=mu_bound(window, s, phi, lambdas),
        xx=xx,
        xx_is_scalar=is_scalar,
    )


def _lambda_denominator(mu: float, xx_scalar: float, slopes):
    # 2 mu <x~.x> phi'(s_A)^2: stability needs lambda_A^2 below its inverse.
    return 2.0 * mu * xx_scalar * slopes * slopes


def lambda_bound(
    window: Sequence[Multivector], s: Multivector, phi: Activation, mu: float, bits: int
) -> float:
    """Amplitude stability ceiling sqrt(1 / (2 mu <x~.x> phi'(s_A)^2)).

    Stability requires lambda_A^2 below the squared bound; the ceiling
    shrinks as the step size mu grows.  Degenerate denominators return
    LAMBDA_BOUND_CAP.
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    xx_scalar = float(window_energy(window).coeffs[0])
    denom = _lambda_denominator(mu, xx_scalar, float(phi.deriv(s.coeffs)[bits]))
    if denom < _DEGENERATE:
        return LAMBDA_BOUND_CAP
    return float(np.sqrt(1.0 / denom))


# ---------------------------------------------------------------------------
# gradient oracle


def finite_difference_gradient(
    state: FilterState,
    window: Sequence[Multivector],
    d: Multivector,
    phi: Activation,
    h: float = 1e-5,
) -> list[Multivector]:
    """Central-difference gradient of E over every real weight coefficient.

    Perturbs each of the L x 2^n coefficients by +-h through the regular
    forward path and assembles dE/d(w_l)_A on blade e_A, the same layout as
    `cost_gradient`.  Independent of the analytic formula by construction.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    sig = state.sig

    def cost(weights: tuple[Multivector, ...]) -> float:
        y, _ = forward(replace(state, weights=weights), window, phi)
        e = d.coeffs - y.coeffs
        return float(np.dot(e, e))

    out = []
    weights = list(state.weights)
    for l, w in enumerate(weights):
        grad = np.zeros(sig.dim)
        base = w.coeffs
        for a in range(sig.dim):
            bump = np.zeros(sig.dim)
            bump[a] = h
            weights[l] = Multivector._own(sig, base + bump)
            e_plus = cost(tuple(weights))
            weights[l] = Multivector._own(sig, base - bump)
            e_minus = cost(tuple(weights))
            grad[a] = (e_plus - e_minus) / (2.0 * h)
        weights[l] = w
        out.append(Multivector._own(sig, grad))
    return out


# ---------------------------------------------------------------------------
# state snapshots


def state_to_text(state: FilterState, activation_name: str) -> str:
    """Snapshot: header 'p,q,L,activation,step', L weight lines, amplitude line.

    Weights use the multivector literal form; the amplitude line is a bare
    bracketed list.  Both are in lexical blade order and round-trip
    bit-exactly.
    """
    sig = state.sig
    table = product_table(sig)
    lines = [f"{sig.p},{sig.q},{state.taps},{activation_name},{state.step}"]
    lines.extend(format_multivector(w) for w in state.weights)
    lines.append("[" + ", ".join(repr(float(a)) for a in state.amplitudes[table.lex_to_bits]) + "]")
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> tuple[FilterState, str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty state snapshot")
    head = lines[0].split(",")
    if len(head) != 5:
        raise ValueError(f"bad snapshot header: {lines[0]!r}")
    p, q, taps, activation_name, step = int(head[0]), int(head[1]), int(head[2]), head[3], int(head[4])
    sig = Signature(p, q)
    get_activation(activation_name)  # validate early
    if len(lines) != 2 + taps:
        raise ValueError(f"snapshot needs {taps} weight lines plus amplitudes, got {len(lines) - 1}")
    weights = []
    for ln in lines[1 : 1 + taps]:
        w = parse_multivector(ln)
        if w.sig != sig:
            raise ValueError(f"weight signature {w.sig} != header signature {sig}")
        weights.append(w)
    amp_line = lines[1 + taps].strip()
    if not (amp_line.startswith("[") and amp_line.endswith("]")):
        raise ValueError(f"bad amplitude line: {amp_line!r}")
    values = [float(v) for v in amp_line[1:-1].split(",")] if amp_line[1:-1].strip() else []
    if len(values) != sig.dim:
        raise ValueError(f"need {sig.dim} amplitudes, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError("amplitudes must be finite")
    table = product_table(sig)
    amps = np.empty(sig.dim)
    amps[table.lex_to_bits] = values
    return FilterState(weights=tuple(weights), amplitudes=amps, step=step), activation_name


def save_state(state: FilterState, activation_name: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_text(state, activation_name))


def load_state(path) -> tuple[FilterState, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_text(fh.read())
