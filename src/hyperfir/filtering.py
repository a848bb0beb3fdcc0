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

A `FilterState` keeps its L weights as one read-only (L, dim) array of
coefficients next to its signature.  Both steps move that array as one unit,
w_l += mu F x~_l for every tap at once, into the next state's array, and
`net_input` takes it as well as a sequence of `Multivector`s.

Every function takes its window as a sequence of samples, most recent first.
A plain list or tuple is stacked once where it enters (`_window`) into a
`_Window` of read-only arrays; `run_training` passes windows that are views
into stacks of its whole signal instead.  Both come from one generator,
`_signal_windows`, which forms each sample's x~_t x_t once.  Each window owns
its x~.x, the `Multivector` that `window_energy` returns, and the parts of it
that the bounds read.  Up to n = 6 a window also holds the
right-multiplication matrices of its samples, so that each product of a row
is one gemv; above n = 6 each tap is one `ProductTable.multiply`.  Every sum
of squares adds its terms left to right (`algebra._sq_sum`) and every gemv
takes a matrix with unit-stride rows, so a row's bits are the same under
OpenBLAS's SkylakeX, Haswell and Zen kernels.

The per-step functions of one training row share what they compute through
a record (`_Row`) that `run_training` files on the row's window once
(`_fill_row`) and that nothing changes afterwards.  A call reads it (`_row`)
only when every object it is given is the record's own; any other call
builds a fresh record of its arguments and files it nowhere, so a value
never depends on which call came first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import Activation, _amplitudes, _value_and_slope, get_activation, split_apply_amplitude
from .algebra import Multivector, Signature, SignatureMismatchError, format_multivector, parse_multivector
from .algebra import _blade_mask, _decode_coeffs, _encode_coeffs, _int_fields, _real, _real_array, _real_dtype
from .algebra import _real_fields, _sq_sum, product_table

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


@dataclass(frozen=True)
class FilterConfig:
    """Training configuration.

    A frozen value: every field is checked once, when it is built.
    ``taps`` and ``seed`` must be integers (numpy integers are stored as
    ``int``; bools and floats are rejected), and ``seed`` >= 0.  The step
    size is ``mu`` (fixed) when it is set, which stores ``mu_auto_frac`` as
    None; otherwise ``mu_auto_frac`` (fraction of the per-step convergence
    bound), which must then be set; ``mu``, ``mu_auto_frac`` and
    ``rho`` must be real numbers (ints, floats or their numpy types; bools
    and strings are rejected), and ``mu`` and ``rho`` finite.  ``sig`` must
    be a `Signature`, ``activation`` an `Activation` or the name of one, and
    ``adaptive_amplitude`` a Python or numpy bool (stored as ``bool``).
    ``adaptive_amplitude`` must be True exactly when the run's algorithm is
    AASHAFA: `run_training` runs AASHAFA exactly when it is True if given no
    ``algo``, and rejects a config that disagrees with an ``algo`` it is given.
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
        _int_fields(self, ("taps", "seed"), "taps and seed")
        _real_fields(self, ("mu", "mu_auto_frac", "rho"), "mu, mu_auto_frac and rho", optional=("mu", "mu_auto_frac"))
        if not isinstance(self.sig, Signature):
            raise ValueError(f"sig must be a Signature, got {self.sig!r}")
        if isinstance(self.activation, str):
            object.__setattr__(self, "activation", get_activation(self.activation))
        elif not isinstance(self.activation, Activation):
            raise ValueError(f"activation must be an Activation or its name, got {self.activation!r}")
        if not isinstance(self.adaptive_amplitude, (bool, np.bool_)):
            raise ValueError(f"adaptive_amplitude must be a bool, got {self.adaptive_amplitude!r}")
        object.__setattr__(self, "adaptive_amplitude", bool(self.adaptive_amplitude))
        if self.taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mu is not None:
            object.__setattr__(self, "mu_auto_frac", None)
            if not (np.isfinite(self.mu) and self.mu > 0):
                raise ValueError(f"fixed step size mu must be finite and positive, got {self.mu}")
        elif self.mu_auto_frac is None:
            raise ValueError("set either mu or mu_auto_frac")
        elif not 0.0 < self.mu_auto_frac < 1.0:
            raise ValueError("mu_auto_frac must lie in (0, 1)")
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"amplitude learning rate rho must be finite and >= 0, got {self.rho}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze(arr) -> np.ndarray:
    # arr as a float array over an immutable bytes object, as
    # np.frombuffer(x.tobytes()) makes: numpy refuses to set it writable, so
    # no one can change it.  A read-only array that owns its data may be set
    # writable again by its owner, and a read-only view may see writes made
    # through its base.  An array that already is such a one is returned.
    if isinstance(arr, np.ndarray) and arr.dtype == float and type(arr.base) is bytes:
        return arr
    return np.frombuffer(np.asarray(arr, dtype=float).tobytes())


_own = Multivector._own


def _frozen_instance(cls, fields: dict):
    # The instance of the frozen dataclass cls that holds the given, already
    # checked values, made with them written straight into its __dict__:
    # past the generated __init__, its checks and its per-field
    # object.__setattr__ calls.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _weight_stack(weights: Sequence[Multivector]) -> tuple[Signature, np.ndarray]:
    # The one signature of weights and their coefficients as one read-only
    # (L, dim) array; weights of more than one signature raise
    # SignatureMismatchError.
    sig = weights[0].sig
    if any(w.sig != sig for w in weights):
        raise SignatureMismatchError("all weights must share one signature")
    return sig, _read_only(np.array([w.coeffs for w in weights]))


@dataclass(frozen=True, eq=False)
class FilterState:
    """Filter value state: L weights, per-component amplitudes, step counter.

    ``step`` must be a non-negative integer (numpy integers are stored as
    ``int``; bools and floats are rejected), weights and amplitudes must be
    finite, and weights of more than one signature raise
    `SignatureMismatchError`.  The amplitudes are a float array over an
    immutable bytes copy, which numpy refuses to set writable: any other
    input is copied, so later writes to it never reach the state.  The
    weights are stored as a tuple, so a list the caller changes later never
    reaches them, and their coefficients also as one read-only (L, dim)
    array next to the signature ``sig``, which the training steps and
    `net_input` read.  A state made by a training step holds only the array
    the step computed and builds its ``weights`` tuple from its rows on first
    access; every later access returns that same tuple.
    Such a state is not checked again, so a diverging run can still hand on
    the non-finite weights it reached.  Two states are equal when their
    signatures, weights, amplitudes and step counters are.
    """

    weights: tuple[Multivector, ...]
    amplitudes: np.ndarray
    step: int = 0

    def __post_init__(self):
        weights = tuple(self.weights)
        if not weights:
            raise ValueError("need at least one weight")
        _int_fields(self, ("step",), "step counters")
        sig, stack = _weight_stack(weights)
        amps = _real_array(self.amplitudes, "amplitudes")
        if amps.shape != (sig.dim,):
            raise ValueError(f"need {sig.dim} amplitudes for {sig}, got {amps.shape}")
        if not np.isfinite(stack).all():
            raise ValueError("weights must be finite")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if self.step < 0:
            raise ValueError(f"step counter must be >= 0, got {self.step}")
        self.__dict__.update(weights=weights, amplitudes=_freeze(amps), sig=sig, _weights=stack)

    __hash__ = None  # value equality over float arrays; not hashable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.sig == other.sig
            and np.array_equal(self._weights, other._weights)
            and np.array_equal(self.amplitudes, other.amplitudes)
            and self.step == other.step
        )

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: the weights of a
        # state made by _of_stack, wrapped from the rows of its array on first
        # access.
        stack = self.__dict__.get("_weights")
        if name != "weights" or stack is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = self.__dict__["weights"] = tuple(_own(self.sig, row) for row in stack)
        return weights

    @property
    def taps(self) -> int:
        return len(self._weights)

    @classmethod
    def _of_stack(cls, sig: Signature, stack: np.ndarray, amplitudes: np.ndarray, step: int) -> FilterState:
        # The state whose weights are the rows of stack, a read-only (L,
        # sig.dim) array that it keeps.  The step that calls this passes a
        # `_freeze`d (dim,) amplitude array and a valid counter, so nothing is
        # checked again: not even finiteness, which a diverging run must be
        # able to report.
        return _frozen_instance(cls, {"amplitudes": amplitudes, "step": step, "sig": sig, "_weights": stack})


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
    sig = config.sig
    weights = _read_only(rng.uniform(-0.1, 0.1, size=(config.taps, sig.dim)))
    return FilterState._of_stack(sig, weights, _freeze(np.ones(sig.dim)), 0)


# ---------------------------------------------------------------------------
# windows


#: Most entries of one block's right-multiplication matrices R(x_t), and
#: again of their transposes: 256 KB of float64 each, so that a run holds a
#: bounded amount of them whatever its length.
_BLOCK_ENTRIES = 1 << 15
#: Most samples of one block: past this many the block's fixed cost is spread
#: thin, and a larger block only raises the peak memory of a low-dimensional run.
_BLOCK_SAMPLES = 32

def _tap_sums(energies: np.ndarray, taps: int) -> np.ndarray:
    # x~.x of every run of `taps` consecutive rows of a (T, dim) stack of the
    # products x~_t x_t: row i sums rows i .. i + taps - 1, tap by tap from
    # zero (a reduction would keep a -0.0 that the zero start turns into +0.0).
    count = len(energies) - taps + 1
    acc = np.zeros((count, energies.shape[1]))
    for l in range(taps):
        acc += energies[l : l + count]
    return acc


class _Window:
    """A filter window of L samples, most recent first, as read-only arrays.

    ``coeffs`` and ``inv`` are the (L, dim) samples and their involutions
    x~_l, and ``finite`` says whether every sample is finite.  The window owns
    its x~.x = sum_l x~_l x_l: ``xx`` is the `Multivector` that
    `window_energy` returns on every call, and ``xx_parts`` its modulus, its
    scalar part and whether it counts as scalar (`_xx_parts`), which the
    bounds read.  Up to n = 6, ``right`` is [R(x_0) ... R(x_{L-1})] as one
    (dim, L dim) matrix with unit-stride rows, (y x_l) = R(x_l) @ y, and
    ``right_inv`` the R(x~_l) = R(x_l)^T stacked as one (L dim, dim) matrix;
    above n = 6 both are None.  ``_row`` holds the record `_fill_row` filed
    on the window, if any.
    """

    __slots__ = ("sig", "coeffs", "inv", "xx", "xx_parts", "finite", "right", "right_inv", "_row")

    def __init__(self, sig: Signature, coeffs, inv, xx, xx_parts, finite: bool, right=None, right_inv=None):
        self.sig = sig
        self.coeffs = coeffs
        self.inv = inv
        self.xx = xx
        self.xx_parts = xx_parts
        self.finite = finite
        self.right = right
        self.right_inv = right_inv
        self._row = None

    def __len__(self) -> int:
        return len(self.coeffs)


def _window(window, sig: Signature | None = None, taps: int | None = None) -> _Window:
    # The one conversion of a window argument, at every public boundary: a
    # _Window passes through, a plain sequence of samples (most recent first)
    # is stacked once.  Raises ValueError for a length other than taps and
    # for an empty window, and SignatureMismatchError for a sample of another
    # signature than sig (by default the first sample's).
    if type(window) is _Window:
        if taps is not None and len(window.coeffs) != taps:
            raise ValueError(f"window length {len(window.coeffs)} != tap count {taps}")
        if sig is not None and window.sig is not sig and window.sig != sig:
            raise SignatureMismatchError(f"window sample signature {window.sig} != {sig}")
        return window
    if taps is not None and len(window) != taps:
        raise ValueError(f"window length {len(window)} != tap count {taps}")
    if len(window) == 0:
        raise ValueError("window must hold at least one sample")
    sig = window[0].sig if sig is None else sig
    return next(_signal_windows(sig, window[::-1], len(window)))


def _signal_windows(sig: Signature, samples: Sequence[Multivector] | np.ndarray, taps: int):
    # The windows of samples x_m .. x_{m-taps+1} for m = taps - 1, taps, ...,
    # in that order: views into read-only stacks of the whole signal, stored
    # most recent first (as one long window), so that each window is a
    # contiguous run of rows.  samples, oldest first, is a sequence of
    # Multivectors of signature sig or the (T, dim) array of their
    # coefficients.  The stacks ignore floating-point errors, so that an inf
    # sample reaches the windows' ``finite`` checks instead of a warning.
    if not isinstance(samples, np.ndarray):
        for x in samples:
            if x.sig != sig:
                raise SignatureMismatchError(f"window sample signature {x.sig} != {sig}")
        samples = np.array([x.coeffs for x in samples])
    table = product_table(sig)
    dim = table.dim
    dense = table.sign_left is not None
    rev = _read_only(samples[::-1].copy())
    with np.errstate(all="ignore"):
        inv = _read_only(rev * table.involution_signs)
        # No non-finite row among the taps rows of a window.
        finite = np.convolve(~np.isfinite(rev).all(axis=1), np.ones(taps), "valid") == 0
        # energies[t] is x~_t x_t, written once per sample: up to n = 6 by
        # the blocks below, above n = 6 here.
        energies = np.empty((len(rev), dim)) if dense else table.multiply_rows(inv, rev)
    # The windows come in blocks of rows rev[lo:hi], the oldest block first,
    # each holding the windows that start in it; above n = 6 the whole signal
    # is one block without matrices.  Up to n = 6 each row's R(x_t) and
    # R(x~_t) are gathered once, the taps - 1 rows a block shares with the
    # one before it are copied from there, and a block's matrices are never
    # written after it is built.
    size = max(taps, min(_BLOCK_SAMPLES, _BLOCK_ENTRIES // (dim * dim))) if dense else len(rev)
    hi, prev, right, right_inv = len(rev), None, None, None
    while hi >= taps:
        lo = max(0, hi - size)
        n = hi - lo
        if dense:
            fresh = n if prev is None else n - taps + 1
            # One allocation per block: the allocator then hands the memory
            # of an older block back, where an array per kind kept faulting
            # in new pages.
            block = np.empty(2 * n * dim * dim)
            right = block[: n * dim * dim].reshape(dim, n, dim)
            right_inv = block[n * dim * dim :].reshape(n, dim, dim)
            with np.errstate(all="ignore"):
                # gathered[t] is R(x_t); the block keeps row k of every R(x_t)
                # in row k, so that a window's (dim, L dim) matrix is a view.
                gathered = table.right_matrices(rev[lo : lo + fresh])
                right[:, :fresh] = gathered.transpose(1, 0, 2)
                table.right_matrices(inv[lo : lo + fresh], out=right_inv[:fresh])
                # x~_t x_t = R(x_t) x~_t, one gemv per row.
                np.matmul(gathered, inv[lo : lo + fresh, :, None], out=energies[lo : lo + fresh, :, None])
            if prev is not None:
                right[:, fresh:] = prev[0][:, : taps - 1]
                right_inv[fresh:] = prev[1][: taps - 1]
            for a in (block, right, right_inv):
                a.setflags(write=False)
            prev = right, right_inv
            right = right.reshape(dim, n * dim)
            right_inv = right_inv.reshape(n * dim, dim)
        with np.errstate(all="ignore"):
            xx = _read_only(_tap_sums(energies[lo:hi], taps))
            parts = _xx_parts(xx)
        for j in range(n - taps, -1, -1):
            i = lo + j
            yield _Window(
                sig, rev[i : i + taps], inv[i : i + taps], _own(sig, xx[j]), parts[j], bool(finite[i]),
                None if right is None else right[:, j * dim : (j + taps) * dim],
                None if right_inv is None else right_inv[j * dim : (j + taps) * dim],
            )
        hi = lo + taps - 1


def _xx_parts(xx: np.ndarray) -> list[tuple[float, float, bool]]:
    # (|x~.x|, its scalar part, whether it counts as scalar) of every row of
    # a (count, dim) stack of x~.x, each sum of squares added along the row as
    # _sq_sum adds it: a row's partial sums do not depend on the other rows.
    mods = np.sqrt(np.add.accumulate(np.square(xx), axis=1)[:, -1])
    rests = np.sqrt(np.add.accumulate(np.square(xx[:, 1:]), axis=1)[:, -1])
    return list(zip(mods.tolist(), xx[:, 0].tolist(), (rests <= SCALAR_XX_RTOL * mods).tolist()))


class _Row:
    """The quantities of one training row, all computed when it is built.

    Given the target ``d``: ``value`` = phi(s), ``y`` = lambdas phi(s) and
    ``e`` = d - y; given only the error ``e``, that error.  With an error:
    ``e_sq`` = |e|^2, ``f`` = F and its (L, dim) tap directions F (x_l)~
    (``directions``).  Given the window's x~.x (``xx``; its parts are read
    from the window): ``p_sq`` = |P|^2 and ``bound`` = mu_bound, and with an
    error as well ``m_sum``, the sum of |F (x_l)~|^2.  Fields without their
    inputs are None.  A record filed by `_fill_row` also holds the (L, dim)
    weight array it was built from (``stack``) and whether its window and
    target are finite (``finite``).  ``unit`` skips the products with the
    amplitudes in y = phi(s), F = e phi'(s) and P = phi'(s), which
    x * 1.0 = x makes exact when every amplitude is 1.0.  Nothing checks
    that: a caller that passes ``unit`` must guarantee all-ones amplitudes.
    """

    __slots__ = (
        "stack", "finite", "s", "phi", "lambdas", "d", "e", "value", "deriv", "y", "e_sq", "f", "directions",
        "p_sq", "bound", "m_sum",
    )

    def __init__(
        self, win: _Window, s: Multivector, phi: Activation, lambdas, d=None, e=None, xx=None, unit: bool = False
    ):
        sig = s.sig
        self.stack = self.finite = self.value = self.y = self.e_sq = self.f = self.directions = None
        self.s, self.phi, self.lambdas, self.d = s, phi, lambdas, d
        if d is None:
            deriv = phi.deriv(s.coeffs)
        else:
            if d.sig is not sig and d.sig != sig:
                raise SignatureMismatchError(f"cannot combine {d.sig} with {sig}")
            self.value, deriv = _value_and_slope(phi, s.coeffs)
            y = self.value if unit else lambdas * self.value
            self.y = _own(sig, y)
            e = _own(sig, d.coeffs - y)
        self.deriv = deriv
        self.e = e
        if e is not None:
            self.e_sq = _sq_sum(e.coeffs)
            # F = sum_A e_A lambda_A phi'(s_A) e_A and the (L, dim) directions
            # F (x_l)~ of win: one gemv on its R(x~_l) stack, or above n = 6
            # one product per tap.
            f = e.coeffs * deriv if unit else e.coeffs * lambdas * deriv
            self.f = _own(sig, f)
            self.directions = (
                (win.right_inv @ f).reshape(len(win.coeffs), -1) if win.right_inv is not None
                else product_table(sig).multiply_rows(f, win.inv)
            )
        if xx is None:
            self.p_sq = self.bound = self.m_sum = None
        else:
            self.p_sq = p_sq = _sq_sum(deriv if unit else lambdas * deriv)
            xx_mod, xx_scalar, is_scalar = win.xx_parts
            magnitude = xx_scalar if is_scalar else xx_mod
            self.bound = MU_BOUND_CAP if not p_sq * xx_mod >= _DEGENERATE else 1.0 / (2.0 * magnitude * p_sq)
            self.m_sum = None if e is None else _sq_sum(self.directions)


def _fill_row(
    win: _Window,
    stack: np.ndarray,
    phi: Activation,
    lambdas: np.ndarray,
    d: Multivector,
    finite: bool,
    unit: bool = False,
) -> _Row:
    # Files on win the record of one training row, from the net input of
    # the (L, dim) weight array stack and the window's x~.x: the one place a
    # record is put on a window.  The amplitudes are filed as a `_freeze`d
    # copy, which no caller's array is unless it cannot change.  finite says
    # whether d is finite (run_training checks every target once per run),
    # and unit is given only where every amplitude is 1.0 (SHAFA's rows in
    # run_training): it is not checked.
    row = _Row(win, net_input(stack, win), phi, _freeze(lambdas), d, xx=window_energy(win), unit=unit)
    row.stack = stack
    row.finite = win.finite and finite
    win._row = row
    return row


def _row(win: _Window, s: Multivector, phi: Activation, lambdas, d=None, e=None, xx=None) -> _Row:
    # The record filed on win when every object given is its own, or else a
    # fresh record of the arguments (one amplitude per blade), which is filed
    # nowhere.  The record holds the fields of x~.x, so xx is not compared:
    # it can only be win's own.
    row = win._row
    if (
        row is not None and row.s is s and row.phi is phi and row.lambdas is lambdas
        and (d is None or d is row.d) and (e is None or e is row.e)
    ):
        return row
    return _Row(win, s, phi, _amplitudes(lambdas, s.sig), d, e, xx)


# ---------------------------------------------------------------------------
# forward path


def net_input(weights: Sequence[Multivector] | np.ndarray, window: Sequence[Multivector]) -> Multivector:
    """s = sum_l w_l x_{m-l+1}; window is most recent sample first.

    ``weights`` is a sequence of L `Multivector`s of the window's signature,
    or their coefficients as one (L, dim) array of the window's algebra, as a
    `FilterState` keeps them; an array of any other shape, or of any dtype
    but integers and floats, raises ValueError.
    """
    if type(window) is _Window:
        row = window._row
        if row is not None and row.stack is weights:
            return row.s
    array = isinstance(weights, np.ndarray)
    # A 0-d array has no length; its shape is rejected below.
    win = _window(window, taps=len(weights) if not array or weights.ndim else None)
    if not array:
        sig, weights = _weight_stack(weights)
        if sig is not win.sig and sig != win.sig:
            raise SignatureMismatchError(f"weight signature {sig} != window signature {win.sig}")
    elif weights.shape != (len(win), win.sig.dim):
        raise ValueError(f"need an (L, {win.sig.dim}) weight array for {win.sig}, got shape {weights.shape}")
    else:
        _real_dtype(weights, "weights")
    if win.right is not None:
        return _own(win.sig, win.right @ weights.ravel())
    # Tap by tap from +0.0, so that L products of -0.0 sum to +0.0.
    products = product_table(win.sig).multiply_rows(weights, win.coeffs)
    return _own(win.sig, np.add.reduce(products, axis=0, initial=0.0))


def forward(state: FilterState, window: Sequence[Multivector], phi: Activation) -> tuple[Multivector, Multivector]:
    """Filter output and net input: y_A = lambda_A phi(s_A)."""
    s = net_input(state._weights, _window(window, state.sig, state.taps))
    y = split_apply_amplitude(state.amplitudes, phi, s)
    return y, s


def cost_gradient(
    state: FilterState, window: Sequence[Multivector], d: Multivector, phi: Activation
) -> list[Multivector]:
    """Algebra-valued derivative of E per tap: grad_l = -2 F (x_{m-l+1})~."""
    win = _window(window, state.sig, state.taps)
    row = _row(win, net_input(state._weights, win), phi, state.amplitudes, d=d)
    return [_own(state.sig, r) for r in row.directions * -2.0]


def window_energy(window: Sequence[Multivector]) -> Multivector:
    """x~.x = sum_l (x_l)~ x_l; its scalar part is the window energy sum |x_l|^2.

    Scalar for the complex and quaternion algebras, but not in general.
    """
    return (window if type(window) is _Window else _window(window)).xx


# ---------------------------------------------------------------------------
# training steps


def _step_window(state: FilterState, window: Sequence[Multivector], d: Multivector) -> _Window:
    # The window of a training step, checked against the state, with every
    # sample and the target finite; a record filed on the window for d
    # already holds that check.
    win = _window(window, state.sig, state.taps)
    row = win._row
    if not (row.finite if row is not None and row.d is d else win.finite and np.isfinite(d.coeffs).all()):
        raise NonFiniteSignalError("window samples and target must be finite")
    return win


def _step_size(value, name: str):
    # value if it is a real number (see algebra._real), else ValueError.  A
    # plain float, as run_training passes, skips the check, which costs about
    # a microsecond.
    return value if type(value) is float else _real(value, "step sizes", f"{name}=")


def _weight_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[np.ndarray, StepRecord, np.ndarray]:
    # The weight update w_l += mu F (x_{m-l+1})~ that both training steps
    # apply, as the next state's read-only (L, dim) weight array, with the
    # step's record and phi(s).
    if not 0.0 < _step_size(mu, "mu") < math.inf:
        raise ValueError(f"step size mu must be positive and finite, got {mu}")
    win = _step_window(state, window, d)
    stack = state._weights
    row = _row(win, net_input(stack, win), phi, state.amplitudes, d=d)
    record = _frozen_instance(StepRecord, {"s": row.s, "y": row.y, "e": row.e, "cost": row.e_sq, "mu_used": mu})
    return _read_only(stack + row.directions * mu), record, row.value


def shafa_step(
    state: FilterState, window: Sequence[Multivector], d: Multivector, mu: float, phi: Activation
) -> tuple[FilterState, StepRecord]:
    """One gradient-descent weight update w_l += mu F (x_{m-l+1})~.

    Amplitudes are left untouched; with all-ones amplitudes this is the plain
    split hypercomplex adaptive filtering update.
    """
    new_weights, record, _ = _weight_step(state, window, d, mu, phi)
    return FilterState._of_stack(state.sig, new_weights, state.amplitudes, state.step + 1), record


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
    if not 0.0 <= _step_size(rho, "rho") < math.inf:
        raise ValueError(f"amplitude learning rate rho must be >= 0 and finite, got {rho}")
    new_weights, record, phi_s = _weight_step(state, window, d, mu, phi)
    new_lam = _freeze(state.amplitudes + rho * record.e.coeffs * phi_s)
    return FilterState._of_stack(state.sig, new_weights, new_lam, state.step + 1), record


# ---------------------------------------------------------------------------
# convergence monitoring


def mu_bound(
    window: Sequence[Multivector], s: Multivector, phi: Activation, lambdas: np.ndarray
) -> float:
    """Step-size ceiling 1 / (2 |x~.x| |P|^2) with P_B = lambda_B phi'(s_B).

    When x~.x is scalar (within tolerance) the modulus equals its scalar
    part, matching the scalar-case form of the bound.  Degenerate windows
    (zero energy or zero slope) return MU_BOUND_CAP instead of infinity, and
    so does a NaN |P|^2 |x~.x|, as NaN weights or amplitudes give; the bound
    is never NaN.  ``lambdas`` must hold one amplitude per blade (shape (dim,)).

    The bound holds on every Cl(p,q), not only on the division algebras.
    Write F_A = e_A P_A for the coefficients of F:

    1. Left multiplication by a basis blade permutes coefficients up to sign,
       and so does the involution, so |F x~_l| <= sum_A |F_A| |x_l|.
    2. By Cauchy-Schwarz, (sum_A |F_A|)^2 <= |e|^2 |P|^2.
    3. <x~.x>_0 = sum_l |x_l|^2 <= |x~.x|, since e_A~ e_A = 1.

    Hence M = (2 mu / |e|^2) sum_l |F x~_l|^2 <= 2 mu <x~.x>_0 |P|^2 <= mu / mu_bound,
    whether the bound takes the scalar part or the modulus of x~.x.
    """
    win = _window(window, s.sig)
    return _row(win, s, phi, lambdas, xx=window_energy(win)).bound


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
    mu must be finite and >= 0 (mu = 0 gives M = 0), and ``lambdas`` of shape
    (dim,), as for `mu_bound`.
    """
    if not 0.0 <= _step_size(mu, "mu") < math.inf:
        raise ValueError(f"step size mu must be >= 0 and finite, got {mu}")
    win = _window(window, e_prior.sig)
    xx = window_energy(win)
    row = _row(win, s, phi, lambdas, e=e_prior, xx=xx)
    if row.e_sq == 0.0:
        raise ZeroPriorError("convergence factor undefined for zero prior error")
    return _frozen_instance(ConvergenceReport, {
        "p_sq": row.p_sq,
        "f": row.f,
        "m_factor": 2.0 * mu * row.m_sum / row.e_sq,
        "mu_bound": mu_bound(win, s, phi, row.lambdas),
        "xx": xx,
        "xx_is_scalar": win.xx_parts[2],
    })


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
    bound is never NaN.  ``bits`` must be a blade mask of the signature, an
    int or a numpy integer: bools and floats raise ValueError.
    """
    if not 0.0 < _step_size(mu, "mu") < math.inf:
        raise ValueError(f"step size mu must be positive and finite, got {mu}")
    bits = _blade_mask(bits, s.sig)
    xx_scalar = float(window_energy(_window(window, s.sig)).coeffs[0])
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
