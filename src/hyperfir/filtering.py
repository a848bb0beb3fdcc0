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
for any signature, and `aashafa_step` additionally trains the per-component
amplitudes.

Step-size safety comes from the first-order error recursion
|e_post|^2 = |e_prior|^2 (1 - M): `convergence_factor` evaluates M and
`mu_bound` the step-size ceiling 1 / (2 |x~.x| |P|^2).  M is linear in mu,
and the ceiling holds on every signature (the proof is in `mu_bound`) and is
sharp: at saturation M reaches exactly 1 at mu = mu_bound, so 0 < M < 1 needs
mu strictly below it.  `lambda_bound` gives the matching per-component
amplitude stability limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import Activation, get_activation, split_apply_amplitude
from .algebra import Multivector, Signature, format_multivector, parse_multivector
from .algebra import _decode_coeffs, _encode_coeffs

#: Returned by mu_bound when |P|^2 |x~.x| is degenerate (no gradient signal).
MU_BOUND_CAP = 1.0
#: Returned by lambda_bound when its denominator is degenerate.
LAMBDA_BOUND_CAP = 1e6
#: x~.x counts as scalar when its non-scalar part is below this, relatively.
SCALAR_XX_RTOL = 1e-12
_DEGENERATE = 1e-12


class NonFiniteSignalError(ValueError):
    """Raised when a training step receives non-finite samples or targets."""


class ZeroPriorError(ValueError):
    """Raised when the convergence factor is requested for a zero prior error."""


@dataclass
class FilterConfig:
    """Training configuration.

    Exactly one of ``mu`` (fixed step size) and ``mu_auto_frac`` (fraction of
    the per-step convergence bound) must be set; ``mu`` and ``rho`` are finite.
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
            if not (np.isfinite(self.mu) and self.mu > 0):
                raise ValueError(f"fixed step size mu must be finite and positive, got {self.mu}")
        elif self.mu_auto_frac is None:
            raise ValueError("set either mu or mu_auto_frac")
        elif not 0.0 < self.mu_auto_frac < 1.0:
            raise ValueError("mu_auto_frac must lie in (0, 1)")
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"amplitude learning rate rho must be finite and >= 0, got {self.rho}")


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
        if self.step < 0:
            raise ValueError(f"step counter must be >= 0, got {self.step}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sig(self) -> Signature:
        return self.weights[0].sig

    @property
    def taps(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class StepRecord:
    """Per-step signals: net input s, output y, error e, cost |e|^2, step size mu_used."""

    s: Multivector
    y: Multivector
    e: Multivector
    cost: float
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
    if len(window) == 0:
        raise ValueError("window must hold at least one sample")
    sig = weights[0].sig
    for x in window:
        if x.sig != sig:
            raise ValueError(f"window sample signature {x.sig} != weight signature {sig}")
    return sig


def net_input(weights: Sequence[Multivector], window: Sequence[Multivector]) -> Multivector:
    """s = sum_l w_l x_{m-l+1}; window is most recent sample first."""
    sig = _check_window(weights, window)
    acc = np.zeros(sig.dim)
    for w, x in zip(weights, window):
        acc += w._left_mul(x.coeffs)
    return Multivector._own(sig, acc)


def forward(state: FilterState, window: Sequence[Multivector], phi: Activation) -> tuple[Multivector, Multivector]:
    """Filter output and net input: y_A = lambda_A phi(s_A)."""
    s = net_input(state.weights, window)
    y = split_apply_amplitude(state.amplitudes, phi, s)
    return y, s


def _directions(
    e: Multivector, s: Multivector, lambdas: np.ndarray, phi: Activation, window: Sequence[Multivector]
) -> tuple[Multivector, np.ndarray]:
    # The error direction F = sum_A e_A lambda_A phi'(s_A) e_A and the
    # per-tap directions F (x_l)~, row l of an (L, dim) array, that make up
    # the update and M alike.
    f = Multivector._own(e.sig, e.coeffs * lambdas * phi.deriv(s.coeffs))
    if len(window) == 0:
        raise ValueError("window must hold at least one sample")
    conj = np.empty((len(window), e.sig.dim))
    for l, x in enumerate(window):
        f._check_sig(x)
        conj[l] = x.involution().coeffs
    return f, f._left_mul(conj)


def _step_pass(
    state: FilterState, window: Sequence[Multivector], d: Multivector, phi: Activation
) -> tuple[Multivector, Multivector, Multivector, np.ndarray]:
    # s, y, e and the per-tap directions F (x_l)~ of one step.
    y, s = forward(state, window, phi)
    e = d - y
    _, directions = _directions(e, s, state.amplitudes, phi, window)
    return s, y, e, directions


def cost_gradient(
    state: FilterState, window: Sequence[Multivector], d: Multivector, phi: Activation
) -> list[Multivector]:
    """Algebra-valued derivative of E per tap: grad_l = -2 F (x_{m-l+1})~."""
    _, _, _, directions = _step_pass(state, window, d, phi)
    return [Multivector._own(state.sig, row) for row in directions * -2.0]


def window_energy(window: Sequence[Multivector]) -> Multivector:
    """x~.x = sum_l (x_l)~ x_l; its scalar part is the window energy sum |x_l|^2.

    Scalar for the complex and quaternion algebras, but not in general.
    """
    if len(window) == 0:
        raise ValueError("window must hold at least one sample")
    sig = window[0].sig
    acc = np.zeros(sig.dim)
    for x in window:
        acc += x._energy()
    return Multivector._own(sig, acc)


# ---------------------------------------------------------------------------
# training steps


def _check_finite(window: Sequence[Multivector], d: Multivector) -> None:
    if not np.isfinite(np.concatenate([*(x.coeffs for x in window), d.coeffs])).all():
        raise NonFiniteSignalError("window samples and target must be finite")


def _weight_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[tuple[Multivector, ...], StepRecord]:
    # The weight update w_l += mu F (x_{m-l+1})~ that both training steps apply.
    if not mu > 0:
        raise ValueError("step size mu must be positive")
    _check_finite(window, d)
    s, y, e, directions = _step_pass(state, window, d, phi)
    new = np.stack([w.coeffs for w in state.weights]) + directions * mu
    new_weights = tuple(Multivector._own(state.sig, row) for row in new)
    record = StepRecord(s=s, y=y, e=e, cost=float(np.dot(e.coeffs, e.coeffs)), mu_used=mu)
    return new_weights, record


def shafa_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[FilterState, StepRecord]:
    """One gradient-descent weight update w_l += mu F (x_{m-l+1})~.

    Amplitudes are left untouched; with all-ones amplitudes this is the plain
    split hypercomplex adaptive filtering update.
    """
    new_weights, record = _weight_step(state, window, d, mu, phi)
    return FilterState(weights=new_weights, amplitudes=state.amplitudes, step=state.step + 1), record


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
    if not rho >= 0:
        raise ValueError("amplitude learning rate rho must be >= 0")
    new_weights, record = _weight_step(state, window, d, mu, phi)
    new_lam = state.amplitudes + rho * record.e.coeffs * phi.func(record.s.coeffs)
    return FilterState(weights=new_weights, amplitudes=new_lam, step=state.step + 1), record


# ---------------------------------------------------------------------------
# convergence monitoring


def _xx_parts(xx: Multivector) -> tuple[float, float, bool]:
    xx_mod = xx.modulus()
    scalar = float(xx.coeffs[0])
    rest = xx.coeffs.copy()
    rest[0] = 0.0
    is_scalar = math.sqrt(rest @ rest) <= SCALAR_XX_RTOL * xx_mod
    return xx_mod, scalar, is_scalar


def mu_bound(
    window: Sequence[Multivector], s: Multivector, phi: Activation, lambdas: np.ndarray
) -> float:
    """Step-size ceiling 1 / (2 |x~.x| |P|^2) with P_B = lambda_B phi'(s_B).

    When x~.x is scalar (within tolerance) the modulus equals its scalar
    part, matching the scalar-case form of the bound.  Degenerate windows
    (zero energy or zero slope) return MU_BOUND_CAP instead of infinity, and
    so does a NaN |P|^2 |x~.x|, as NaN weights give; the bound is never NaN.

    The bound holds on every Cl(p,q), not only on the division algebras.
    Write F_A = e_A P_A for the coefficients of F:

    1. Left multiplication by a basis blade permutes coefficients up to sign,
       and so does the involution, so |F x~_l| <= sum_A |F_A| |x_l|.
    2. By Cauchy-Schwarz, (sum_A |F_A|)^2 <= |e|^2 |P|^2.
    3. <x~.x>_0 = sum_l |x_l|^2 <= |x~.x|, since e_A~ e_A = 1.

    Hence M = (2 mu / |e|^2) sum_l |F x~_l|^2 <= 2 mu <x~.x>_0 |P|^2 <= mu / mu_bound,
    whether the bound takes the scalar part or the modulus of x~.x.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    p = lambdas * phi.deriv(s.coeffs)
    p_sq = float(np.dot(p, p))
    xx = window_energy(window)
    xx_mod, xx_scalar, is_scalar = _xx_parts(xx)
    magnitude = xx_scalar if is_scalar else xx_mod
    if not p_sq * xx_mod >= _DEGENERATE:
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

    Stability of the first-order error recursion requires 0 < M < 1, which
    takes mu strictly below ``mu_bound``: M can reach 1 at mu = mu_bound.
    """
    e_sq = float(np.dot(e_prior.coeffs, e_prior.coeffs))
    if e_sq == 0.0:
        raise ZeroPriorError("convergence factor undefined for zero prior error")
    lambdas = np.asarray(lambdas, dtype=float)
    f, directions = _directions(e_prior, s, lambdas, phi, window)
    total = sum(float(np.dot(row, row)) for row in directions)
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
    LAMBDA_BOUND_CAP, and so does a NaN one, as a NaN net input gives; the
    bound is never NaN.  ``bits`` must be a blade mask of the signature.
    """
    if not mu > 0:
        raise ValueError("step size mu must be positive")
    if not 0 <= bits < s.sig.dim:
        raise ValueError(f"blade mask {bits} out of range for {s.sig}")
    xx_scalar = float(window_energy(window).coeffs[0])
    denom = _lambda_denominator(mu, xx_scalar, float(phi.deriv(s.coeffs)[bits]))
    if not denom >= _DEGENERATE:
        return LAMBDA_BOUND_CAP
    return float(np.sqrt(1.0 / denom))


# ---------------------------------------------------------------------------
# state snapshots


def state_to_text(state: FilterState, activation_name: str) -> str:
    """Snapshot: header 'p,q,L,activation,step', L weight lines, amplitude line.

    Weights use the multivector literal form; the amplitude line is the same
    bracketed coefficient list without the signature prefix.  Both are in
    lexical blade order and round-trip bit-exactly.
    """
    sig = state.sig
    lines = [f"{sig.p},{sig.q},{state.taps},{activation_name},{state.step}"]
    lines.extend(format_multivector(w) for w in state.weights)
    lines.append(_encode_coeffs(sig, state.amplitudes))
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
    amps = _decode_coeffs(sig, lines[1 + taps])
    return FilterState(weights=tuple(weights), amplitudes=amps, step=step), activation_name


def save_state(state: FilterState, activation_name: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_text(state, activation_name))


def load_state(path) -> tuple[FilterState, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_text(fh.read())
