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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .algebra import Multivector, Signature, _int_fields, _real_fields, ideal_frame, product_table
from .filtering import (
    FilterConfig,
    FilterState,
    _lambda_denominator,
    _fill_row,
    _read_only,
    _signal_windows,
    aashafa_step,
    convergence_factor,
    init_state,
    mu_bound,
    shafa_step,
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
#: Widest signal whose AR(4) recursion runs on Python floats, one component
#: at a time; wider ones run one numpy product and reduction per sample.
_AR4_FLOAT_DIM = 8

#: A run counts as diverged once the squared error passes this.
DIVERGENCE_LIMIT = 1e6
#: Squared-error level used for the steps-to-threshold summary.
MSE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a deterministic synthetic multivector sequence.

    A frozen value: every field is checked once, when it is built.
    All its numbers must be finite, ``length``, ``teacher_taps`` and
    ``seed`` integers (numpy integers are stored as ``int``; bools and floats
    are rejected), ``scale``, ``noise_std`` and ``teacher_radius`` real
    numbers (ints, floats or their numpy types; bools and strings are
    rejected), ``seed`` >= 0, and ``teacher_activation`` the name of an
    activation.
    """

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
        _int_fields(self, ("length", "teacher_taps", "seed"), "length, teacher_taps and seed")
        _real_fields(self, ("scale", "noise_std", "teacher_radius"), "scale, noise_std and teacher_radius")
        if self.length < 2:
            raise ValueError("signal length must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.teacher_taps < 1:
            raise ValueError("teacher_taps must be >= 1")
        get_activation(self.teacher_activation)  # an unknown name raises here, for every kind
        if not (math.isfinite(self.teacher_radius) and self.teacher_radius > 0):
            raise ValueError(f"teacher_radius must be finite and positive, got {self.teacher_radius}")
        if self.kind == "teacher" and self.length < self.teacher_taps:
            raise ValueError(f"teacher signal length {self.length} < teacher_taps {self.teacher_taps}")


def generate_signal(
    spec: SignalSpec, sig: Signature
) -> tuple[list[Multivector], tuple[Multivector, ...] | None]:
    """Deterministic sample sequence for the spec; same seed, same samples.

    For the teacher kind the hidden generating weights are returned as well
    so realizability can be checked; other kinds return None.
    """
    rows, hidden = _signal_array(spec, sig)
    samples = [Multivector._own(sig, row) for row in rows]
    if hidden is not None:
        hidden = tuple(Multivector._own(sig, row) for row in hidden)
    return samples, hidden


def _signal_array(spec: SignalSpec, sig: Signature) -> tuple[np.ndarray, np.ndarray | None]:
    # The samples of generate_signal as one read-only (T, dim) array, and
    # the teacher's hidden weights as a read-only (taps, dim) array (None for
    # the other kinds).
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "teacher":
        rows, hidden = _teacher_signal(spec, sig, rng)
        return _read_only(rows), _read_only(hidden)
    if spec.kind == "ar4":
        rows = _ar4_signal(spec, sig.dim, rng)
    else:
        rows = _circular_signal(spec, sig.dim, rng)
    if spec.noise_std > 0:
        rows = rows + rng.normal(0.0, spec.noise_std, size=rows.shape)
    return _read_only(rows), None


def _companion_radius(blocks: np.ndarray) -> float:
    # Largest spectral radius over the block companion matrices of
    # x_{t+1} = sum_l B_l x_{t-l}, one per given ideal block; blocks is
    # (taps, ideals, m, m).
    taps, ideals, m, _ = blocks.shape
    comp = np.zeros((ideals, taps * m, taps * m))
    comp[:, :m] = blocks.transpose(1, 2, 0, 3).reshape(ideals, m, taps * m)
    comp[:, m:, :-m] = np.eye((taps - 1) * m)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _teacher_signal(spec: SignalSpec, sig: Signature, rng) -> tuple[np.ndarray, np.ndarray]:
    phi = get_activation(spec.teacher_activation)
    taps = spec.teacher_taps
    dim = sig.dim
    raw = rng.uniform(-1.0, 1.0, size=(taps, dim))
    # Rescale the hidden weights so the recursion linearized at the origin,
    # x_{t+1} = scale * phi'(0) * sum_l w_l x_{t-l}, has the target spectral
    # radius; bisection because the block companion radius is not linear in
    # the common factor.
    #
    # The companion acts on windows (x_t, ..., x_{t-L+1}) through the left
    # multiplications M_l = left_matrix(w_l) and shifts.  Every M_l maps each
    # left ideal Cl f_e of ideal_frame into itself (see IdealFrame), and so
    # do the shifts, so in the ideals' orthonormal bases U_e the companion is
    # exactly block diagonal, one companion of the blocks U_e^T M_l U_e per
    # ideal, and its spectrum is the union of theirs: the radius is the
    # largest of the small companions' radii, with no approximation.  The
    # right multiplication that maps the ideals of one class onto each other
    # commutes with every M_l and the shifts, so their companions are similar
    # and one block per class gives the same radius.  IdealFrame.blocks reads
    # those class blocks from the transform of the weights, as the block
    # product does, so no M_l is formed for them.
    slope0 = float(phi.deriv(np.zeros(1))[0])
    blocks = ideal_frame(sig).blocks(raw)
    # unbounded recursions blow up above radius 1
    target = spec.teacher_radius if phi.bounded else 1.0

    def radius(c: float) -> float:
        return _companion_radius(c * spec.scale * slope0 * blocks)

    lo, hi = 0.0, 1.0
    while radius(hi) < target:
        hi *= 2.0
        if math.isinf(hi):
            raise ValueError(f"teacher weights cannot be rescaled to spectral radius {target} at scale {spec.scale}")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if radius(mid) < target:
            lo = mid
        else:
            hi = mid
    raw *= 0.5 * (lo + hi)
    table = product_table(sig)
    lmats = np.stack([table.left_matrix(w) for w in raw])

    rows = np.empty((spec.length, dim))
    rows[:taps] = rng.uniform(-0.5, 0.5, size=(taps, dim)) * spec.scale
    # One gemv per tap in one batched product, summed tap by tap from +0.0
    # as net_input sums them; the driving noise of all samples is drawn at
    # once, which gives the numbers one draw per sample would.
    noise = rng.normal(0.0, spec.noise_std, size=(spec.length - taps, dim)) if spec.noise_std > 0 else None
    for t in range(taps, spec.length):
        s = np.add.reduce(lmats @ rows[t - taps:t][::-1, :, None], axis=0, initial=0.0)[:, 0]
        rows[t] = phi.func(s) * spec.scale
        if noise is not None:
            rows[t] += noise[t - taps]
    return rows, raw


def _ar4_signal(spec: SignalSpec, dim: int, rng) -> np.ndarray:
    total = spec.length + _AR4_BURN_IN
    drive = rng.normal(0.0, 1.0, size=(total, dim))
    # A sample is drive[t] + a_1 u[t-1] + ... + a_4 u[t-4], summed in that
    # order, with u = +0.0 before the first sample; the terms a_k * 0.0 are
    # signed zeros, which leave a sum that starts at a non-zero drive
    # unchanged.  Up to _AR4_FLOAT_DIM components each component runs on
    # Python floats, one component at a time: the same products and additions
    # as one product and one reduction of a (5, dim) buffer per sample, which
    # costs more past that width.
    if dim <= _AR4_FLOAT_DIM:
        u = np.empty((total, dim))
        a1, a2, a3, a4 = AR4_COEFFS
        for c in range(dim):
            u1 = u2 = u3 = u4 = 0.0
            column = []
            append = column.append
            for x in drive[:, c].tolist():
                u1, u2, u3, u4 = x + a1 * u1 + a2 * u2 + a3 * u3 + a4 * u4, u1, u2, u3
                append(u1)
            u[:, c] = column
        return spec.scale * u[_AR4_BURN_IN:]
    order = len(AR4_COEFFS)
    u = np.zeros((order + total, dim))
    coeffs = np.array(AR4_COEFFS)[:, None]
    buf = np.empty((order + 1, dim))
    for t in range(total):
        buf[0] = drive[t]
        np.multiply(coeffs, u[t:t + order][::-1], out=buf[1:])
        np.add.reduce(buf, axis=0, out=u[order + t])
    return spec.scale * u[order + _AR4_BURN_IN:]


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


class _RowTable(Sequence):
    """The rows of a run as a read-only sequence over one (R, 5 + dim) table.

    A table row holds step, cost, mu_used, mu_bound, m_factor and the
    lambdas in lexical blade order, all float64.  ``len`` reads the table
    alone; a `StepRow` is built when its index is first read and kept.
    Equal to any sequence of equal rows.
    """

    __slots__ = ("table", "_rows")

    def __init__(self, table: np.ndarray):
        self.table = _read_only(table)
        self._rows: list[StepRow | None] = [None] * len(table)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = self._rows[index]
        if row is None:
            step, *fields = self.table[index].tolist()
            row = self._rows[index] = StepRow(int(step), *fields[:4], tuple(fields[4:]))
        return row

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class RunReport:
    """Rows, summary and final state of a training run.

    `run_training` hands ``rows`` over as a read-only sequence over the run's
    row table, whose `StepRow` objects are built on access; any sequence of
    `StepRow` works as well (``dataclasses.replace(report, rows=[...])``).
    """

    rows: Sequence[StepRow]
    summary: RunSummary
    final_state: FilterState


def run_training(config: FilterConfig, spec: SignalSpec, algo: str | None = None) -> RunReport:
    """One-step-ahead training over the generated signal.

    With no ``algo``, the run is AASHAFA exactly when
    ``config.adaptive_amplitude`` is True, and SHAFA otherwise; an ``algo``
    of 'shafa' or 'aashafa' that disagrees with the field raises ValueError.

    A signal of length T yields T - taps rows.  Divergence (non-finite cost
    or cost above DIVERGENCE_LIMIT) halts the run and returns the partial
    report with the flag set.

    Each row calls the public per-step functions, but hands them arrays
    stacked once per run.  The signal is generated as one (T, dim) array and
    never as T `Multivector`s: every window x_m .. x_{m-L+1} comes from
    `filtering._signal_windows`, as views into read-only stacks of the
    signal, with its own x~.x and, up to n = 6, the right-multiplication
    matrices of its samples; each target x_{m+1} wraps a row of the signal
    without a copy.  The finiteness of every target is checked once per run.
    Each row first files its record on its window (`filtering._fill_row`),
    which computes every quantity of the row once; the bound, the step and
    `convergence_factor` are then given the record's own objects and read
    their results from it, and the row reads the scalar part of x~.x from
    the window.

    A row only appends a tuple of its numbers, its amplitudes and phi'(s) to
    lists.  After the loop they become one (R, 5 + dim) row table, which the
    report's ``rows`` reads (building each `StepRow` on access) and
    `emit_csv` writes; the lambda ratio of every row, the summary's fold of
    them and its costs are each one array expression.
    """
    if algo is None:
        algo = "aashafa" if config.adaptive_amplitude else "shafa"
    if algo not in ("shafa", "aashafa"):
        raise ValueError(f"algo must be 'shafa' or 'aashafa', got {algo!r}")
    if config.adaptive_amplitude != (algo == "aashafa"):
        raise ValueError(f"config.adaptive_amplitude={config.adaptive_amplitude} contradicts algo={algo!r}")
    taps = config.taps
    if spec.length < taps + 1:
        raise ValueError(f"signal length {spec.length} < taps + 1 = {taps + 1}")
    sig = config.sig
    signal, _ = _signal_array(spec, sig)
    phi, rho, fixed_mu, frac = config.activation, config.rho, config.mu, config.mu_auto_frac
    adaptive = algo == "aashafa"
    state = init_state(config)
    # SHAFA keeps init_state's all-ones amplitudes.
    unit = not adaptive
    own = Multivector._own

    # Per row: (cost, mu_used, mu_bound, M, scalar part of x~.x), the
    # amplitudes in effect and phi'(s).
    numbers, amplitudes, slopes = [], [], []
    diverged = False
    with np.errstate(all="ignore"):
        # The last sample is only a target, so the windows end at m = T - 2,
        # and the targets are the samples from x_taps on.
        targets = signal[taps:]
        windows = _signal_windows(sig, signal[:-1], taps)
        for window, target, finite in zip(windows, targets, np.isfinite(targets).all(axis=1).tolist()):
            d = own(sig, target)
            lambdas_used = state.amplitudes
            row = _fill_row(window, state._weights, phi, lambdas_used, d, finite, unit)
            bound = mu_bound(window, row.s, phi, lambdas_used)
            mu = frac * bound if fixed_mu is None else fixed_mu
            if adaptive:
                state, record = aashafa_step(state, window, d, mu, rho, phi)
            else:
                state, record = shafa_step(state, window, d, mu, phi)
            cost = record.cost
            m_factor = 0.0
            if 0.0 < cost < math.inf:
                m_factor = convergence_factor(window, record.e, record.s, phi, lambdas_used, mu).m_factor
            numbers.append((cost, mu, bound, m_factor, window.xx_parts[1]))
            amplitudes.append(lambdas_used)
            slopes.append(row.deriv)
            if not cost <= DIVERGENCE_LIMIT:
                diverged = True
                break

        count = len(numbers)
        numbers = np.array(numbers)
        costs = numbers[:, 0].tolist()
        amplitudes = np.array(amplitudes)
        table = np.empty((count, 5 + sig.dim))
        table[:, 0] = np.arange(count)
        table[:, 1:5] = numbers[:, :4]
        table[:, 5:] = amplitudes[:, product_table(sig).lex_to_bits]
        # lambda_A^2 * 2 mu <x~.x> phi'(s_A)^2 per row, then its max; the
        # run's ratio keeps a row only when it beats the running max, from
        # 0.0 up, so a NaN row never counts.
        ratios = np.max(amplitudes**2 * _lambda_denominator(table[:, 2:3], numbers[:, 4:], np.array(slopes)), axis=1)
        max_ratio = float(np.max(ratios, initial=0.0, where=ratios > 0.0))

    tail = max(1, count // 10)
    summary = RunSummary(
        final_mse=float(np.mean(costs[-tail:])),
        steps_to_threshold=next((i for i, cost in enumerate(costs) if cost < MSE_THRESHOLD), None),
        diverged=diverged,
        max_lambda_ratio=max_ratio,
    )
    return RunReport(rows=_RowTable(table), summary=summary, final_state=state)


# ---------------------------------------------------------------------------
# CSV traces


def csv_header(dim: int) -> str:
    return "step,E,mu_used,mu_bound,M," + ",".join(f"lambda_{i}" for i in range(dim))


def emit_csv(report: RunReport, path) -> None:
    """Write one row per training step; floats carry 17 significant digits.

    The rows are read from the report's row table; any other sequence of
    `StepRow` is turned into the same table first.  A row is one %-format:
    '%.17g' % x gives the bytes of format(x, '.17g'), for +-0, +-inf, NaN
    and subnormals too.  A column that holds the same 64-bit pattern in
    every row, such as the amplitudes of a SHAFA run or a fixed step size,
    is formatted once and written into that format as text.
    """
    dim = report.final_state.sig.dim
    rows = report.rows
    if isinstance(rows, _RowTable):
        table = rows.table
    else:
        table = np.array(
            [(r.step, r.cost, r.mu_used, r.mu_bound, r.m_factor, *r.lambdas) for r in rows], dtype=float
        ).reshape(len(rows), 5 + dim)
    fields = ["%d"] + ["%.17g"] * (4 + dim)
    if len(table):
        bits = table.view(np.int64)
        constant = (bits == bits[0]).all(axis=0)
        first = table[0].tolist()
        for j in np.flatnonzero(constant).tolist():
            fields[j] = fields[j] % first[j]
        table = table[:, ~constant]
    row = ",".join(fields)
    lines = [csv_header(dim)]
    lines.extend(row % tuple(r) for r in table.tolist())
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
        rows.append(StepRow(int(parts[0]), *map(float, parts[1:5]), tuple(map(float, parts[5:]))))
    return rows
