"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from hyperfir import (
    Activation,
    Multivector,
    Signature,
    StepRecord,
    aashafa_step,
    blade_grade,
    blade_product,
    convergence_factor,
    generate_signal,
    get_activation,
    init_state,
    mu_bound,
    net_input,
    product_table,
    shafa_step,
    window_energy,
)
from hyperfir.algebra import _PARITY_SIGNS, TABLE_MAX_DIMENSION, _signed_index, blade_factors, ideal_frame
from hyperfir.experiments import _AR4_BURN_IN, AR4_COEFFS, DIVERGENCE_LIMIT, StepRow, _signal_array
from hyperfir.filtering import _lambda_denominator, _step_window

QUATERNION_SIG = Signature(0, 2)

#: Signatures whose ideal frames the tests exercise: K = 1 to 32 ideals, one
#: or two ideal classes, and one algebra beyond the dense tables.
IDEAL_SIGNATURES = [
    Signature(1, 0), Signature(2, 1), Signature(0, 3), Signature(3, 0),
    Signature(4, 1), Signature(0, 6), Signature(5, 4), Signature(0, 2),
]


class WrongSignatureError(ValueError):
    """Raised when a quaternion-only operation sees a non-Cl(0,2) input."""


def all_signatures(max_n: int):
    """Every Cl(p,q) with 1 <= p+q <= max_n."""
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


#: The 14 signatures with n <= 4, Cl(0,6) at the largest bench dimension, and
#: Cl(5,4) and Cl(4,4) on the split product path.
EQUIVALENCE_SIGS = [*all_signatures(4), Signature(0, 6), Signature(5, 4), Signature(4, 4)]


def random_mv(sig: Signature, rng, lo=-1.0, hi=1.0) -> Multivector:
    return Multivector(sig, rng.uniform(lo, hi, size=sig.dim))


def random_int_mv(sig: Signature, rng, bound: int = 8) -> Multivector:
    """Small-integer coefficients: products and sums stay exact in float64."""
    return Multivector(sig, rng.integers(-bound, bound + 1, size=sig.dim).astype(float))


#: Blade pairs (i, j) that each product kind keeps; None is the geometric product.
PAIRS_KEPT = {
    None: lambda i, j: True,
    "outer": lambda i, j: i & j == 0,
    "left": lambda i, j: i & ~j == 0,
    "right": lambda i, j: j & ~i == 0,
}


def product_oracle(m: Multivector, n: Multivector, kind=None) -> np.ndarray:
    """Blade-by-blade double loop over the pairs ``kind`` keeps; independent of the tables.

    Blades where m is 0 add nothing to a finite product and are skipped, so a
    sparse m costs nnz(m) 2^n blade products.
    """
    sig = m.sig
    keep = PAIRS_KEPT[kind]
    out = np.zeros(sig.dim)
    for a in np.flatnonzero(m.coeffs).tolist():
        for b in range(sig.dim):
            if keep(a, b):
                sign, c = blade_product(a, b, sig)
                out[c] += m.coeffs[a] * n.coeffs[b] * sign
    return out


def blade_product_oracle(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """e_a e_b by rewriting the word of its factors; independent of `blade_product`.

    The factor lists of a and b, concatenated, are bubble-sorted, each swap of
    two neighbours flipping the sign, and then each adjacent pair e_k e_k is
    cancelled into its square sig.metric(k) = +-1.
    """
    word = [k for mask in (a, b) for k in range(1, sig.n + 1) if mask >> (k - 1) & 1]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    result, i = 0, 0
    while i < len(word):
        if word[i + 1:i + 2] == [word[i]]:
            sign *= sig.metric(word[i])
            i += 2
        else:
            result |= 1 << (word[i] - 1)
            i += 1
    return sign, result


def dense_table_oracle(table, a: np.ndarray, b: np.ndarray, kind=None) -> np.ndarray:
    """ProductTable.multiply up to n = 6 as the full gather: every blade of a meets every blade of b."""
    return (a[table.xor] * table._signs(kind)) @ b


def graded_product_oracle(m: Multivector, n: Multivector, grade_rule) -> Multivector:
    """Grade-projected products via the explicit double grade loop.

    grade_rule maps (r, s) to the kept output grade (may be negative for
    'nothing').
    """
    sig = m.sig
    out = Multivector.zero(sig)
    for r in range(sig.n + 1):
        mr = m.grade(r)
        for s in range(sig.n + 1):
            ns = n.grade(s)
            k = grade_rule(r, s)
            if 0 <= k <= sig.n:
                out = out + (mr * ns).grade(k)
    return out


def split_apply(phi: Activation, x: Multivector) -> Multivector:
    """phi applied to every blade coefficient of x."""
    return Multivector(x.sig, phi.func(x.coeffs))


def split_apply_deriv(phi: Activation, x: Multivector) -> np.ndarray:
    """phi' evaluated per blade coefficient.

    The entries are the same function phi' at different arguments, one per
    component; they are not equal in general.
    """
    return phi.deriv(x.coeffs)


def split_multiply_oracle(table, a: np.ndarray, b: np.ndarray, kind=None) -> np.ndarray:
    """ProductTable.multiply above the dense tables as a gather-then-multiply loop.

    Per high row of a: gather the rows of b it meets and scale them by the
    high signs, gather the low block of the row and scale it by the low signs,
    then one matmul.  Dropped pairs are scaled by 0 rather than skipped.
    """
    low, high = table._factors()
    even = np.ascontiguousarray(low._signs(kind).T)
    odd = even * np.where(low.grades % 2 == 0, 1.0, -1.0)[:, None]
    high_signs = np.ascontiguousarray(np.take_along_axis(high._signs(kind), high.xor, axis=1).T)
    a = a.reshape(high.dim, low.dim)
    b = b.reshape(high.dim, low.dim)
    out = np.zeros((high.dim, low.dim))
    for i in np.flatnonzero(a.any(axis=1)):
        right = b[high.xor[i]]
        right *= high_signs[i][:, None]
        out += right @ (a[i][low.xor] * (odd if high.grades[i] % 2 else even))
    return out.reshape(-1)


@lru_cache(maxsize=None)
def _split_loop_tables(sig: Signature, kind) -> tuple[np.ndarray, list]:
    # The split kernel's sign and index tables, built here rather than read
    # from ProductTable._signs, so that the oracle shares no split table with the
    # kernel it checks.
    low, high = product_table(sig)._factors()
    even = low._signs(kind).T
    odd = even * _PARITY_SIGNS[low.grades, None]
    low_index = np.stack([_signed_index(low.xor, s, low.dim) for s in (even, odd)])
    high_signs = np.take_along_axis(high._signs(kind), high.xor, axis=1).T
    gather = _signed_index(high.xor, high_signs, high.dim)
    rows = []
    for i, kept in enumerate(high_signs != 0):
        cols = slice(None) if kept.all() else np.flatnonzero(kept)
        rows.append((cols, gather[i, cols]))
    return low_index, rows


def split_loop_oracle(table, a: np.ndarray, b: np.ndarray, kind=None) -> np.ndarray:
    """The split kernel of ProductTable.multiply as a plain loop over a's live high rows.

    One signed gather of b's rows, one of the row's low block and one matmul
    per row, added to the output rows it keeps in ascending row order: the
    bit oracle of both split paths, for every kind, finite or not.
    """
    low, high = table._factors()
    a = a.reshape(high.dim, low.dim)
    b = b.reshape(high.dim, low.dim)
    low_index, rows = _split_loop_tables(table.sig, kind)
    signed_a = np.concatenate([a, -a, np.zeros((high.dim, 1))], axis=1)
    signed_b = np.concatenate([b, -b])
    out = np.zeros((high.dim, low.dim))
    for i in np.flatnonzero(a.any(axis=1)):
        cols, gather = rows[i]
        out[cols] += signed_b[gather] @ signed_a[i][low_index[high.grades[i] & 1]]
    return out.reshape(-1)


def split_left_matrix_oracle(table, a: np.ndarray) -> np.ndarray:
    """ProductTable.left_matrix above the dense tables as a loop over output block rows."""
    low, high = table._factors()
    even = np.ascontiguousarray(low._signs(None).T)
    odd = even * np.where(low.grades % 2 == 0, 1.0, -1.0)[:, None]
    a = a.reshape(high.dim, low.dim)
    blocks = a[:, low.xor] * np.where(high.grades[:, None, None] % 2 == 0, even, odd)
    out = np.empty((high.dim, low.dim, high.dim, low.dim))
    for c in range(high.dim):
        np.multiply(
            blocks[high.xor[c]].transpose(0, 2, 1),
            high.sign_left[c, :, None, None],
            out=out[c].transpose(1, 0, 2),
        )
    return out.reshape(table.dim, table.dim)


def assert_close_mv(a: Multivector, b: Multivector, rtol=1e-12, scale=None):
    ref = scale if scale is not None else max(a.modulus(), b.modulus(), 1.0)
    diff = float(np.max(np.abs(a.coeffs - b.coeffs)))
    assert diff <= rtol * ref, f"multivectors differ by {diff} (scale {ref})"


def lexical_order_oracle(n: int) -> np.ndarray:
    """Bitmasks sorted by (grade, factor tuple) with a Python sort key."""
    masks = sorted(range(1 << n), key=lambda m: (blade_grade(m), blade_factors(m)))
    return np.array(masks, dtype=np.intp)


def companion_radius_oracle(mats) -> float:
    """Spectral radius of the full block companion matrix of x_{t+1} = sum_l mats[l] x_{t-l}."""
    taps, dim = len(mats), mats[0].shape[0]
    comp = np.zeros((taps * dim, taps * dim))
    comp[:dim] = np.hstack(mats)
    comp[dim:, :-dim] = np.eye((taps - 1) * dim)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def dense_ideal_bases(sig: Signature) -> np.ndarray:
    """The (K, dim, r) stack of dense U_e, written entry by entry from the frame's arrays."""
    frame = ideal_frame(sig)
    r, k = frame.support.shape
    u = np.zeros((k, sig.dim, r))
    for e in range(k):
        for j in range(r):
            u[e, frame.support[j], j] = frame.signs[j] * frame.chars[:, e] / np.sqrt(k)
    return u


def every_ideal_block(sig: Signature, w: np.ndarray) -> np.ndarray:
    """The (m, K, r, r) blocks U_e^T L(w_l) U_e of every ideal e, for each row w_l of w.

    The blocks of ``classes`` come from `IdealFrame.blocks`, the others from
    the dense U_e of `dense_ideal_bases`.
    """
    frame = ideal_frame(sig)
    u = dense_ideal_bases(sig)
    mats = [product_table(sig).left_matrix(w_l) for w_l in w]
    out = np.stack([[u_e.T @ mat @ u_e for u_e in u] for mat in mats])
    out[:, list(frame.classes)] = frame.blocks(w)
    return out


def signal_oracle(spec, sig: Signature) -> np.ndarray:
    """The samples of `_signal_array` from per-sample loops over the same random draws.

    AR(4): drive[t] plus a_k u[t-k] for k = 1 .. 4, added one at a time.
    Teacher: one product per tap, each added to a zero start in tap order, and
    one noise draw per sample; the hidden weights come from `_signal_array`
    itself (their bisection has its own oracle), and their left matrices
    equal the scaled ones the recursion uses, entry for entry.
    """
    rng = np.random.default_rng(spec.seed)
    dim = sig.dim
    if spec.kind == "teacher":
        taps = spec.teacher_taps
        phi = get_activation(spec.teacher_activation)
        rng.uniform(-1.0, 1.0, size=(taps, dim))
        hidden = _signal_array(spec, sig)[1]
        lmats = [product_table(sig).left_matrix(w) for w in hidden]
        rows = np.empty((spec.length, dim))
        rows[:taps] = rng.uniform(-0.5, 0.5, size=(taps, dim)) * spec.scale
        for t in range(taps, spec.length):
            s = np.zeros(dim)
            for l in range(taps):
                s += lmats[l] @ rows[t - 1 - l]
            rows[t] = spec.scale * phi.func(s)
            if spec.noise_std > 0:
                rows[t] += rng.normal(0.0, spec.noise_std, size=dim)
        return rows
    if spec.kind == "ar4":
        total = spec.length + _AR4_BURN_IN
        drive = rng.normal(0.0, 1.0, size=(total, dim))
        u = np.zeros((total, dim))
        for t in range(total):
            acc = drive[t].copy()
            for k, a in enumerate(AR4_COEFFS, start=1):
                if t - k >= 0:
                    acc += a * u[t - k]
            u[t] = acc
        rows = spec.scale * u[_AR4_BURN_IN:]
    else:
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        omega = 2.0 * np.pi * (0.05 + 0.9 * np.mod((np.arange(dim) + 1) * golden, 1.0))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        rows = spec.scale * np.sin(omega[None, :] * np.arange(spec.length)[:, None] + phase[None, :])
    if spec.noise_std > 0:
        rows = rows + rng.normal(0.0, spec.noise_std, size=rows.shape)
    return rows


def window_energy_reference(window) -> np.ndarray:
    """sum_l (x_l)~ x_l, each term formed afresh from the coefficients and added to a zero start in tap order.

    Up to n = 6 a term is R(x_l) @ x~_l with R from `right_matrix`, one gemv
    as the filter makes it; above n = 6 one table product.
    """
    table = product_table(window[0].sig)
    acc = np.zeros(table.dim)
    for x in window:
        inv = x.coeffs * table.involution_signs
        acc += right_matrix(x.sig, x) @ inv if x.sig.n <= TABLE_MAX_DIMENSION else table.multiply(inv, x.coeffs)
    return acc


def net_input_reference(weights, window) -> np.ndarray:
    """sum_l w_l x_l as the filter forms it, from the coefficients alone.

    Up to n = 6 one gemv of [R(x_0) ... R(x_{L-1})], with R from
    `right_matrix`, on the stacked weights; above n = 6 one table product per
    tap, added to a zero start in tap order.
    """
    sig = window[0].sig
    if sig.n <= TABLE_MAX_DIMENSION:
        return np.hstack([right_matrix(sig, x) for x in window]) @ np.concatenate([w.coeffs for w in weights])
    table = product_table(sig)
    acc = np.zeros(sig.dim)
    for w, x in zip(weights, window):
        acc += table.multiply(w.coeffs, x.coeffs)
    return acc


def directions_reference(f: np.ndarray, window) -> np.ndarray:
    """The (L, dim) tap directions F (x_l)~: up to n = 6 one gemv R((x_l)~) @ F per tap, with R from
    `right_matrix`; above n = 6 one table product per tap."""
    sig = window[0].sig
    if sig.n <= TABLE_MAX_DIMENSION:
        return np.array([right_matrix(sig, x.involution()) @ f for x in window])
    table = product_table(sig)
    return np.array([table.multiply(f, x.involution().coeffs) for x in window])


def square_sum_reference(values) -> float:
    """The sum of the squares of the flattened values, added one at a time from the first in a Python loop."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    total = values[0] * values[0]
    for v in values[1:]:
        total += v * v
    return total


def run_training_reference(config, spec, algo: str):
    """`run_training`'s loop on plain tuples: (rows, final state, diverged, max lambda ratio).

    Each row builds the window (x_m, ..., x_{m-L+1}) as a tuple of the
    generated samples and drives the public per-step functions with it and
    with the state's weight tuple, in run_training's order.  It also checks
    the net input, x~.x, the weight update w_l + mu F x~_l and M of every row
    bit for bit against the right-multiplication matrices of `right_matrix`
    (table products above n = 6), taken through the same gemv calls and
    sums of squares as the filter, so that a change to the kernels those
    functions share with run_training shows here as well.
    """
    samples, _ = generate_signal(spec, config.sig)
    phi = config.activation
    state = init_state(config)
    table = product_table(config.sig)
    taps = config.taps
    rows = []
    diverged = False
    max_ratio = 0.0
    with np.errstate(all="ignore"):
        for m in range(taps - 1, len(samples) - 1):
            window = tuple(samples[m - i] for i in range(taps))
            d = samples[m + 1]
            lambdas_used = state.amplitudes
            s = net_input(state.weights, window)
            expect = net_input_reference(state.weights, window)
            assert np.array_equal(s.coeffs.view(np.int64), expect.view(np.int64)), m
            xx = window_energy(window)
            assert np.array_equal(xx.coeffs.view(np.int64), window_energy_reference(window).view(np.int64)), m
            bound = mu_bound(window, s, phi, lambdas_used)
            mu = config.mu if config.mu is not None else config.mu_auto_frac * bound
            old = state
            if algo == "aashafa":
                state, record = aashafa_step(state, window, d, mu, config.rho, phi)
            else:
                state, record = shafa_step(state, window, d, mu, phi)
            f = record.e.coeffs * lambdas_used * phi.deriv(record.s.coeffs)
            for w_new, w, direction in zip(state.weights, old.weights, directions_reference(f, window)):
                expect = w.coeffs + direction * mu
                assert np.array_equal(w_new.coeffs.view(np.int64), expect.view(np.int64)), m
            if record.cost > 0.0 and np.isfinite(record.cost):
                m_factor = convergence_factor(window, record.e, record.s, phi, lambdas_used, mu).m_factor
                expect = convergence_factor_oracle(window, record.e, record.s, phi, lambdas_used, mu)
                assert np.array_equal(np.float64(m_factor).view(np.int64), np.float64(expect).view(np.int64)), m
            else:
                m_factor = 0.0
            rows.append(StepRow(
                step=len(rows),
                cost=record.cost,
                mu_used=mu,
                mu_bound=bound,
                m_factor=m_factor,
                lambdas=tuple(lambdas_used[table.lex_to_bits].tolist()),
            ))
            denom = _lambda_denominator(mu, float(xx.coeffs[0]), phi.deriv(record.s.coeffs))
            max_ratio = max(max_ratio, float(np.max(lambdas_used**2 * denom)))
            if not np.isfinite(record.cost) or record.cost > DIVERGENCE_LIMIT:
                diverged = True
                break
    return rows, state, diverged, max_ratio


def convergence_factor_oracle(window, e: Multivector, s: Multivector, phi, lambdas, mu: float) -> float:
    """M = 2 mu sum_l |F (x_l)~|^2 / |e|^2 from `directions_reference`, each sum of squares from `square_sum_reference`."""
    f = e.coeffs * lambdas * phi.deriv(s.coeffs)
    total = square_sum_reference(directions_reference(f, window))
    return 2.0 * mu * total / square_sum_reference(e.coeffs)


@lru_cache(maxsize=None)
def _blade_signs(sig: Signature) -> np.ndarray:
    # signs[a, b] is the sign of e_a e_b = +-e_{a XOR b}, one blade_product
    # each; read-only, as the cache shares it.
    signs = np.array([[blade_product(a, b, sig)[0] for b in range(sig.dim)] for a in range(sig.dim)], dtype=float)
    signs.setflags(write=False)
    return signs


def right_matrix(sig: Signature, x) -> np.ndarray:
    """R(x), the real matrix of y -> y x on bitmask-ordered coefficients.

    Column j is e_j x = sum_b x_b e_j e_b, assembled from `blade_product`
    signs alone, so it shares no code with `ProductTable`.
    """
    x = np.asarray(getattr(x, "coeffs", x), dtype=float)
    signs = _blade_signs(sig)
    blades = np.arange(sig.dim)
    out = np.zeros((sig.dim, sig.dim))
    for j in range(sig.dim):
        out[j ^ blades, j] = signs[j] * x
    return out


def structure_scalar(sig: Signature, a: int, b: int, c: int) -> int:
    """Scalar part of e_a (e_c)~ (e_b)~; the coefficient of e_a in e_b e_c.

    Always -1, 0, or +1, and nonzero exactly when a == b XOR c.
    """
    if a != b ^ c:
        return 0
    involution_signs = product_table(sig).involution_signs
    sign_cb, d = blade_product(c, b, sig)  # e_c e_b = sign_cb e_d with d = a
    inv = int(involution_signs[c]) * int(involution_signs[b])
    square, _ = blade_product(a, d, sig)  # e_a e_a sign
    return inv * sign_cb * square


class SignedBladeMap:
    """A signed-blade isomorphism Phi of Cl(p,q) onto another algebra, built from `blade_product`.

    Two rules, with f_k the basis vectors of the target ``sig``:

    * ``"q+1"``: e_1 -> f_1, e_i -> f_i f_1 (i > 1), onto Cl(q+1, p-1), for p >= 1;
    * ``"p-4"``: e_i -> f_i w (i <= 4, w = f_1 f_2 f_3 f_4), e_i -> f_i (i > 4),
      onto Cl(p-4, q+4), for p >= 4.

    (f_i f_1)^2 = -f_i^2 and (f_i w)^2 = -f_i^2 w^2, so the source vectors
    are paired with target vectors of the square that keeps e_i^2: under
    "q+1" e_2..e_p take the negative f_{q+2}..f_n and the negative source
    vectors the positive f_2..f_{q+1}; under "p-4" e_1..e_4 take the
    negative f_{p-3}..f_p, w is their product, e_5..e_p take f_1..f_{p-4}
    and the negative source vectors keep their index.  The images of the
    generators square as the sources and anticommute pairwise, which the
    constructor checks, so Phi extends to an algebra isomorphism (Lounesto,
    Clifford Algebras and Spinors, 2001).  It sends each blade e_A to
    ``signs[A]`` times the target blade ``index[A]``: a signed permutation
    of the coefficients, which preserves every modulus and commutes with the
    principal involution.
    """

    def __init__(self, source: Signature, rule: str):
        p, q, n = source.p, source.q, source.n
        if rule == "q+1":
            assert p >= 1
            self.sig = Signature(q + 1, p - 1)
            order = [1, *range(q + 2, n + 1), *range(2, q + 2)]
            images = [(1, 1)] + [blade_product(1 << (k - 1), 1, self.sig) for k in order[1:]]
        else:
            assert rule == "p-4" and p >= 4
            self.sig = Signature(p - 4, q + 4)
            order = [*range(p - 3, p + 1), *range(1, p - 3), *range(p + 1, n + 1)]
            omega = sum(1 << (k - 1) for k in order[:4])  # ascending factors: sign +1
            images = [blade_product(1 << (k - 1), omega, self.sig) for k in order[:4]]
            images += [(1, 1 << (k - 1)) for k in order[4:]]
        self.source = source
        for i, (sign, mask) in enumerate(images):
            assert blade_product(mask, mask, self.sig)[0] == source.metric(i + 1)
            for _, other in images[:i]:
                assert blade_product(mask, other, self.sig)[0] == -blade_product(other, mask, self.sig)[0]
        index, signs = [], []
        for a in range(source.dim):
            sign, mask = 1, 0
            for k in blade_factors(a):
                image_sign, image = images[k - 1]
                step_sign, mask = blade_product(mask, image, self.sig)
                sign *= step_sign * image_sign
            index.append(mask)
            signs.append(float(sign))
        assert sorted(index) == list(range(source.dim))
        self.index = np.array(index)
        self.signs = np.array(signs)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Phi of a coefficient array, or of each row of a stack of them."""
        out = np.empty_like(a, dtype=float)
        out[..., self.index] = a * self.signs
        return out

    def permute(self, amplitudes: np.ndarray) -> np.ndarray:
        """Per-blade amplitudes moved with the blades, without the signs."""
        out = np.empty_like(amplitudes, dtype=float)
        out[..., self.index] = amplitudes
        return out


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


def sqafa_step(state, window, d: Multivector, mu: float, phi):
    """Quaternion-only update through the explicit component expansion.

    An independent formula-level cross-check of `shafa_step` on Cl(0,2); the
    bitmask order of Cl(0,2) coefficients is exactly (real, i, j, k) under
    1, e1, e2, e12.
    """
    if not mu > 0:
        raise ValueError("step size mu must be positive")
    sig = state.sig
    if sig != QUATERNION_SIG:
        raise WrongSignatureError(f"sqafa_step needs Cl(0,2), got {sig}")
    _step_window(state, window, d)

    lam = state.amplitudes
    s4 = np.zeros(4)
    for w, x in zip(state.weights, window):
        s4 = s4 + _qmul(w.coeffs, x.coeffs)
    y4 = lam * phi.func(s4)
    e4 = d.coeffs - y4
    f4 = e4 * lam * phi.deriv(s4)
    delta = tuple(Multivector(sig, mu * _qmul(f4, _qconj(x.coeffs))) for x in window)
    new_weights = tuple(w + dw for w, dw in zip(state.weights, delta))
    record = StepRecord(
        s=Multivector(sig, s4),
        y=Multivector(sig, y4),
        e=Multivector(sig, e4),
        cost=float(np.dot(e4, e4)),
        mu_used=mu,
    )
    return replace(state, weights=new_weights, step=state.step + 1), record


def finite_difference_gradient(state, window, d: Multivector, phi, h: float = 1e-5) -> list[Multivector]:
    """Central-difference gradient of E over every real weight coefficient.

    Perturbs each of the L x 2^n coefficients by +-h and re-evaluates
    E = |d - lambda phi(sum_l w_l x_l)|^2 with the products w_l x_l of
    `Multivector.__mul__`, summed from zero in tap order.  The products of the
    unperturbed taps are formed once; only the perturbed tap's product is
    formed again.  Assembles dE/d(w_l)_A on blade e_A, the same layout as
    `cost_gradient`.  Independent of the analytic formula and of `filtering`
    by construction.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    sig = state.sig
    products = [(w * x).coeffs for w, x in zip(state.weights, window)]

    def cost(l: int, w: Multivector) -> float:
        s = np.zeros(sig.dim)
        for k, p in enumerate(products):
            s += (w * window[l]).coeffs if k == l else p
        e = d.coeffs - state.amplitudes * phi.func(s)
        return float(np.dot(e, e))

    out = []
    for l, w in enumerate(state.weights):
        grad = np.zeros(sig.dim)
        for a in range(sig.dim):
            bump = np.zeros(sig.dim)
            bump[a] = h
            e_plus = cost(l, Multivector(sig, w.coeffs + bump))
            e_minus = cost(l, Multivector(sig, w.coeffs - bump))
            grad[a] = (e_plus - e_minus) / (2.0 * h)
        out.append(Multivector(sig, grad))
    return out


def csv_row_oracle(row: StepRow) -> str:
    """One `emit_csv` line as a per-field join: str(step), then format(x, ".17g") per float."""
    fields = [row.cost, row.mu_used, row.mu_bound, row.m_factor, *row.lambdas]
    return ",".join([str(row.step)] + [format(x, ".17g") for x in fields])
