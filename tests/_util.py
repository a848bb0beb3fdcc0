"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from hyperfir import Activation, Multivector, Signature, StepRecord, blade_grade, blade_product, forward, product_table
from hyperfir.algebra import blade_factors
from hyperfir.filtering import _check_finite, _check_window

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


def dense_table_oracle(table, a: np.ndarray, b: np.ndarray, kind=None) -> np.ndarray:
    """ProductTable.multiply up to n = 8 as the full gather: every blade of a meets every blade of b."""
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


def window_energy_reference(window) -> np.ndarray:
    """sum_l (x_l)~ x_l, each term formed afresh from the coefficients (no per-sample cache)."""
    table = product_table(window[0].sig)
    acc = np.zeros(table.dim)
    for x in window:
        acc += table.multiply(x.coeffs * table.involution_signs, x.coeffs)
    return acc


def convergence_factor_oracle(window, e: Multivector, s: Multivector, phi, lambdas, mu: float) -> float:
    """M = 2 mu sum_l |F (x_l)~|^2 / |e|^2 with one fresh table product per tap."""
    table = product_table(e.sig)
    f = e.coeffs * lambdas * phi.deriv(s.coeffs)
    total = 0
    for x in window:
        fx = table.multiply(f, x.coeffs * table.involution_signs)
        total += float(np.dot(fx, fx))
    return 2.0 * mu * total / float(np.dot(e.coeffs, e.coeffs))


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
    _check_window(state.weights, window)
    _check_finite(window, d)

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
            weights[l] = Multivector(sig, base + bump)
            e_plus = cost(tuple(weights))
            weights[l] = Multivector(sig, base - bump)
            e_minus = cost(tuple(weights))
            grad[a] = (e_plus - e_minus) / (2.0 * h)
        weights[l] = w
        out.append(Multivector(sig, grad))
    return out
