"""Synthetic signals, one-step-ahead training runs, and CSV traces.

Every run predicts x_{m+1} from the window [x_m, ..., x_{m-L+1}], so a
signal of length T yields T - L training rows.  Three signal families cover
the interesting regimes:

* ``teacher``  -- self-exciting recursion x_{t+1} = scale * Phi(w* . window)
  driven by a hidden FIR filter and split activation; the prediction task is
  exactly realizable by a filter with matching taps (and, for scale > 1, a
  matching amplitude vector), which gives convergence-to-zero-error checks.
* ``ar4``      -- a stable fourth-order autoregression driven by unit
  Gaussian noise, run independently in every blade component; stochastic
  tracking.
* ``circular`` -- one sinusoid per blade component at mutually incommensurate
  frequencies; smooth deterministic prediction.

``noise_std`` adds Gaussian noise: injected into the recursion for the
teacher (driving noise, so the task stays realizable up to the noise floor)
and onto the finished samples for the other kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .algebra import Multivector, Signature, product_table
from .filtering import (
    FilterConfig,
    FilterState,
    _lambda_denominator,
    aashafa_step,
    convergence_factor,
    init_state,
    mu_bound,
    net_input,
    shafa_step,
    window_energy,
)

SIGNAL_KINDS = ("teacher", "ar4", "circular")
#: Default spectral radius of the linearized teacher recursion.  Above 1 the
#: origin is unstable, so the bounded activation sustains lively dynamics
#: instead of letting the sequence collapse; slightly above 1 gives smooth
#: quasi-periodic orbits, large values saturated broadband ones.  Identity
#: teachers are pinned to exactly 1 for neutral oscillation.
TEACHER_RADIUS = 1.25
#: Classic stable AR(4) benchmark coefficients.
AR4_COEFFS = (1.79, -1.85, 1.27, -0.41)
_AR4_BURN_IN = 100

#: A run counts as diverged once the squared error passes this.
DIVERGENCE_LIMIT = 1e6
#: Squared-error level used for the steps-to-threshold summary.
MSE_THRESHOLD = 1e-3


@dataclass
class SignalSpec:
    """Recipe for a deterministic synthetic multivector sequence."""

    kind: str
    length: int
    scale: float = 1.0
    noise_std: float = 0.0
    seed: int = 0
    teacher_taps: int = 4
    teacher_activation: str = "tanh"
    teacher_radius: float = TEACHER_RADIUS

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; choose from {SIGNAL_KINDS}")
        if self.length < 2:
            raise ValueError("signal length must be at least 2")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.teacher_taps < 1:
            raise ValueError("teacher_taps must be >= 1")
        if self.teacher_radius <= 0:
            raise ValueError("teacher_radius must be positive")


def generate_signal(
    spec: SignalSpec, sig: Signature
) -> tuple[list[Multivector], tuple[Multivector, ...] | None]:
    """Deterministic sample sequence for the spec; same seed, same samples.

    For the teacher kind the hidden generating weights are returned as well
    so realizability can be checked; other kinds return None.
    """
    rng = np.random.default_rng(spec.seed)
    dim = sig.dim
    if spec.kind == "teacher":
        rows, hidden = _teacher_signal(spec, sig, rng)
    elif spec.kind == "ar4":
        rows, hidden = _ar4_signal(spec, dim, rng), None
    else:
        rows, hidden = _circular_signal(spec, dim, rng), None
    if spec.noise_std > 0 and spec.kind != "teacher":
        rows = rows + rng.normal(0.0, spec.noise_std, size=rows.shape)
    samples = [Multivector(sig, row) for row in rows]
    return samples, hidden


def _companion_radius(blocks: list[np.ndarray]) -> float:
    # Spectral radius of the block companion matrix of x_{t+1} = sum_l B_l x_{t-l}.
    taps = len(blocks)
    dim = blocks[0].shape[0]
    size = taps * dim
    if size <= 256:
        comp = np.zeros((size, size))
        comp[:dim] = np.hstack(blocks)
        if taps > 1:
            comp[dim:, :-dim] = np.eye((taps - 1) * dim)
        return float(np.max(np.abs(np.linalg.eigvals(comp))))
    # Large systems: power iteration on the companion operator (shift plus
    # block top row) with per-step renormalization.  The rescaling only needs
    # the radius to a few percent, and the geometric mean of the tail growth
    # factors smooths the oscillation of complex eigenvalue pairs.
    state = np.full(size, 1.0 / np.sqrt(size))
    rates = []
    for _ in range(400):
        top = np.zeros(dim)
        for l, block in enumerate(blocks):
            top += block @ state[l * dim : (l + 1) * dim]
        new_state = np.concatenate([top, state[:-dim]]) if taps > 1 else top
        norm = float(np.linalg.norm(new_state))
        if norm == 0.0:
            return 0.0
        rates.append(norm)
        state = new_state / norm
    return float(np.exp(np.mean(np.log(rates[200:]))))


def _teacher_signal(spec: SignalSpec, sig: Signature, rng) -> tuple[np.ndarray, tuple[Multivector, ...]]:
    phi = get_activation(spec.teacher_activation)
    taps = spec.teacher_taps
    dim = sig.dim
    raw = rng.uniform(-1.0, 1.0, size=(taps, dim))
    # Rescale the hidden weights so the recursion linearized at the origin,
    # x_{t+1} = scale * phi'(0) * sum_l w_l x_{t-l}, has the target spectral
    # radius; bisection because the block companion radius is not linear in
    # the common factor.
    table = product_table(sig)
    slope0 = float(phi.deriv(np.zeros(1))[0])
    lmats = [table.left_matrix(raw[l]) for l in range(taps)]
    # unbounded identity recursions blow up above radius 1
    target = 1.0 if spec.teacher_activation == "identity" else spec.teacher_radius

    def radius(c: float) -> float:
        return _companion_radius([c * spec.scale * slope0 * m for m in lmats])

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if radius(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("teacher weight rescaling failed to reach the target radius")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if radius(mid) < target:
            lo = mid
        else:
            hi = mid
    raw *= 0.5 * (lo + hi)
    hidden = tuple(Multivector(sig, row) for row in raw)

    rows = np.empty((spec.length, dim))
    rows[:taps] = rng.uniform(-0.5, 0.5, size=(taps, dim)) * spec.scale
    for t in range(taps, spec.length):
        s = np.zeros(dim)
        for l in range(taps):
            s += table.multiply(raw[l], rows[t - 1 - l])
        rows[t] = spec.scale * phi.func(s)
        if spec.noise_std > 0:
            rows[t] += rng.normal(0.0, spec.noise_std, size=dim)
    return rows, hidden


def _ar4_signal(spec: SignalSpec, dim: int, rng) -> np.ndarray:
    total = spec.length + _AR4_BURN_IN
    drive = rng.normal(0.0, 1.0, size=(total, dim))
    u = np.zeros((total, dim))
    for t in range(total):
        acc = drive[t].copy()
        for k, a in enumerate(AR4_COEFFS, start=1):
            if t - k >= 0:
                acc += a * u[t - k]
        u[t] = acc
    return spec.scale * u[_AR4_BURN_IN:]


def _circular_signal(spec: SignalSpec, dim: int, rng) -> np.ndarray:
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    fractions = np.mod((np.arange(dim) + 1) * golden, 1.0)
    omega = 2.0 * math.pi * (0.05 + 0.9 * fractions)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    t = np.arange(spec.length)[:, None]
    return spec.scale * np.sin(omega[None, :] * t + phase[None, :])


# ---------------------------------------------------------------------------
# training runs


@dataclass(frozen=True)
class StepRow:
    """One CSV row: per-step cost, step sizes, convergence factor, amplitudes.

    ``lambdas`` holds the amplitudes in effect during the step (pre-update),
    in lexical blade order.
    """

    step: int
    cost: float
    mu_used: float
    mu_bound: float
    m_factor: float
    lambdas: tuple[float, ...]


@dataclass(frozen=True)
class RunSummary:
    final_mse: float
    steps_to_threshold: int | None
    diverged: bool
    max_lambda_ratio: float

    @property
    def lambda_ok(self) -> bool:
        """True when every amplitude stayed inside its stability bound."""
        return self.max_lambda_ratio < 1.0


@dataclass(frozen=True)
class RunReport:
    rows: list[StepRow]
    summary: RunSummary
    final_state: FilterState


def run_training(config: FilterConfig, spec: SignalSpec, algo: str = "shafa") -> RunReport:
    """One-step-ahead training over the generated signal.

    A signal of length T yields T - taps rows.  Divergence (non-finite cost
    or cost above DIVERGENCE_LIMIT) halts the run and returns the partial
    report with the flag set.
    """
    if algo not in ("shafa", "aashafa"):
        raise ValueError(f"algo must be 'shafa' or 'aashafa', got {algo!r}")
    if config.adaptive_amplitude != (algo == "aashafa"):
        raise ValueError(f"config.adaptive_amplitude={config.adaptive_amplitude} contradicts algo={algo!r}")
    taps = config.taps
    if spec.length < taps + 1:
        raise ValueError(f"signal length {spec.length} < taps + 1 = {taps + 1}")
    samples, _ = generate_signal(spec, config.sig)
    phi = config.activation
    state = init_state(config)
    lex = product_table(config.sig).lex_to_bits

    rows: list[StepRow] = []
    diverged = False
    max_ratio = 0.0
    with np.errstate(all="ignore"):
        for m in range(taps - 1, len(samples) - 1):
            window = tuple(samples[m - i] for i in range(taps))
            d = samples[m + 1]
            lambdas_used = state.amplitudes
            s = net_input(state.weights, window)
            bound = mu_bound(window, s, phi, lambdas_used)
            mu = config.mu if config.mu is not None else config.mu_auto_frac * bound
            if algo == "aashafa":
                state, record = aashafa_step(state, window, d, mu, config.rho, phi)
            else:
                state, record = shafa_step(state, window, d, mu, phi)
            if record.cost > 0.0 and np.isfinite(record.cost):
                m_factor = convergence_factor(window, record.e, record.s, phi, lambdas_used, mu).m_factor
            else:
                m_factor = 0.0
            rows.append(
                StepRow(
                    step=len(rows),
                    cost=record.cost,
                    mu_used=mu,
                    mu_bound=bound,
                    m_factor=m_factor,
                    lambdas=tuple(float(v) for v in lambdas_used[lex]),
                )
            )
            xx_scalar = float(window_energy(window).coeffs[0])
            denom = _lambda_denominator(mu, xx_scalar, phi.deriv(record.s.coeffs))
            ratio = float(np.max(lambdas_used**2 * denom))
            max_ratio = max(max_ratio, ratio)
            if not np.isfinite(record.cost) or record.cost > DIVERGENCE_LIMIT:
                diverged = True
                break

    tail = max(1, len(rows) // 10)
    final_mse = float(np.mean([r.cost for r in rows[-tail:]]))
    reached = next((r.step for r in rows if r.cost < MSE_THRESHOLD), None)
    summary = RunSummary(
        final_mse=final_mse,
        steps_to_threshold=reached,
        diverged=diverged,
        max_lambda_ratio=max_ratio,
    )
    return RunReport(rows=rows, summary=summary, final_state=state)


# ---------------------------------------------------------------------------
# CSV traces


def _fmt(x: float) -> str:
    return format(x, ".17g")


def csv_header(dim: int) -> str:
    return "step,E,mu_used,mu_bound,M," + ",".join(f"lambda_{i}" for i in range(dim))


def emit_csv(report: RunReport, path) -> None:
    """Write one row per training step; floats carry 17 significant digits."""
    dim = report.final_state.sig.dim
    lines = [csv_header(dim)]
    for r in report.rows:
        fields = [str(r.step), _fmt(r.cost), _fmt(r.mu_used), _fmt(r.mu_bound), _fmt(r.m_factor)]
        fields.extend(_fmt(v) for v in r.lambdas)
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path) -> list[StepRow]:
    """Read back rows written by emit_csv (bit-exact for finite values)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header[:5] != ["step", "E", "mu_used", "mu_bound", "M"]:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    n_lambda = len(header) - 5
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5 + n_lambda:
            raise ValueError(f"bad CSV row: {ln!r}")
        rows.append(
            StepRow(
                step=int(parts[0]),
                cost=float(parts[1]),
                mu_used=float(parts[2]),
                mu_bound=float(parts[3]),
                m_factor=float(parts[4]),
                lambdas=tuple(float(v) for v in parts[5:]),
            )
        )
    return rows
