"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from hyperfir import Multivector, Signature, blade_product, product_table


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


def product_oracle(m: Multivector, n: Multivector) -> np.ndarray:
    """Blade-by-blade double loop over all pairs; independent of the tables."""
    sig = m.sig
    out = np.zeros(sig.dim)
    for a in range(sig.dim):
        for b in range(sig.dim):
            sign, c = blade_product(a, b, sig)
            out[c] += m.coeffs[a] * n.coeffs[b] * sign
    return out


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


def assert_close_mv(a: Multivector, b: Multivector, rtol=1e-12, scale=None):
    ref = scale if scale is not None else max(a.modulus(), b.modulus(), 1.0)
    diff = float(np.max(np.abs(a.coeffs - b.coeffs)))
    assert diff <= rtol * ref, f"multivectors differ by {diff} (scale {ref})"


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
