"""Signed-blade isomorphisms as a check that needs no oracle.

Each map Phi of `_util.SignedBladeMap` sends a basis blade of Cl(p,q) to
plus or minus a basis blade of another signature, and is an algebra
isomorphism.  The two sides of each check go through different sign tables
and, above n = 6, different kernels and frames, so a sign error in any one
of them shows, with nothing to compare against but the kernel itself.
"""

import numpy as np
import pytest

from hyperfir import (
    TANH,
    FilterState,
    Multivector,
    Signature,
    SignalSpec,
    aashafa_step,
    convergence_factor,
    forward,
    generate_signal,
    get_activation,
    mu_bound,
    product_table,
    shafa_step,
)
from hyperfir.algebra import ideal_frame
from hyperfir.experiments import _companion_radius

from _util import SignedBladeMap, all_signatures

#: Every (source, rule) with n <= 8, and two above the dense tables whose
#: dense pairs take the block products and whose vector x dense pairs take
#: the split kernel.
MAPS = [
    *((sig, "q+1") for sig in all_signatures(8) if sig.p >= 1),
    *((sig, "p-4") for sig in all_signatures(8) if sig.p >= 4),
    (Signature(6, 4), "q+1"),
    (Signature(8, 4), "q+1"),
]

#: Training pairs with an odd activation: the filters on the two sides agree.
TRAINING_MAPS = [(Signature(3, 0), "q+1"), (Signature(1, 2), "q+1"), (Signature(4, 2), "p-4")]


def _operands(sig, rng):
    # A dense pair with no zero coefficient, and a vector with a dense right operand.
    dense = rng.uniform(0.5, 1.5, size=(2, sig.dim)) * rng.choice([-1.0, 1.0], size=(2, sig.dim))
    vector = np.zeros(sig.dim)
    vector[1 << np.arange(sig.n)] = rng.uniform(-1.0, 1.0, size=sig.n)
    return [(dense[0], dense[1]), (vector, dense[1])]


def _assert_mapped(got, want):
    # got equals want to rtol 1e-13 of want's largest coefficient.
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _train(sig, samples, weights, algo, phi, taps=4):
    # The per-step API over the rows of samples, from the given weights and
    # all-ones amplitudes, at mu = 0.1 mu_bound: each row's cost, mu_bound
    # and M, and the final state.
    state = FilterState(weights=tuple(Multivector(sig, w) for w in weights), amplitudes=np.ones(sig.dim))
    rows = []
    for m in range(taps - 1, len(samples) - 1):
        window = tuple(Multivector(sig, samples[m - l]) for l in range(taps))
        d = Multivector(sig, samples[m + 1])
        _, s = forward(state, window, phi)
        lambdas = state.amplitudes
        bound = mu_bound(window, s, phi, lambdas)
        mu = 0.1 * bound
        if algo == "shafa":
            state, record = shafa_step(state, window, d, mu, phi)
        else:
            state, record = aashafa_step(state, window, d, mu, 0.01, phi)
        m_factor = convergence_factor(window, record.e, record.s, phi, lambdas, mu).m_factor
        rows.append((record.cost, bound, m_factor))
    return np.array(rows), state


class TestSignedBladeIsomorphisms:
    """Phi(a) Phi(b) = Phi(a b) on every kernel, and split filters with tanh agree across Phi."""

    @pytest.mark.parametrize("source,rule", MAPS, ids=str)
    def test_geometric_products(self, source, rule):
        phi = SignedBladeMap(source, rule)
        rng = np.random.default_rng([source.p, source.q])
        source_table, target_table = product_table(source), product_table(phi.sig)
        for a, b in _operands(source, rng):
            _assert_mapped(target_table.multiply(phi(a), phi(b)), phi(source_table.multiply(a, b)))
        a, x = rng.uniform(-1.0, 1.0, size=(2, 3, source.dim))
        _assert_mapped(target_table.multiply_rows(phi(a), phi(x)), phi(source_table.multiply_rows(a, x)))
        if source.n <= 8:
            # R(Phi(x)) Phi(y) = Phi(y x), row by row.
            mapped = target_table.right_matrices(phi(x)) @ phi(a)[:, :, None]
            _assert_mapped(mapped[:, :, 0], phi(source_table.multiply_rows(a, x)))

    @pytest.mark.parametrize("source,rule", MAPS, ids=str)
    def test_teacher_companion_radius(self, source, rule):
        # The teacher rescales its weights by the spectral radius of the
        # recursion x_{t+1} = sum_l w_l x_{t-l}, which Phi carries over; the
        # two sides read their blocks through frames of different blades.
        phi = SignedBladeMap(source, rule)
        rng = np.random.default_rng([source.p, source.q, 19])
        for taps in (1, 3):
            weights = rng.uniform(-1.0, 1.0, size=(taps, source.dim))
            radius = _companion_radius(ideal_frame(source).blocks(weights))
            mapped = _companion_radius(ideal_frame(phi.sig).blocks(phi(weights)))
            assert mapped == pytest.approx(radius, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("algo", ["shafa", "aashafa"])
    @pytest.mark.parametrize("source,rule", TRAINING_MAPS, ids=str)
    def test_training_agrees_with_tanh(self, source, rule, algo):
        phi = SignedBladeMap(source, rule)
        samples, _ = generate_signal(SignalSpec(kind="teacher", length=204, seed=source.p + 3), source)
        samples = np.array([x.coeffs for x in samples])
        weights = np.random.default_rng(source.q).uniform(-0.1, 0.1, size=(4, source.dim))
        rows, state = _train(source, samples, weights, algo, TANH)
        mapped_rows, mapped_state = _train(phi.sig, phi(samples), phi(weights), algo, TANH)
        np.testing.assert_allclose(mapped_rows, rows, rtol=1e-12)
        scale = np.max(np.abs(state._weights))
        np.testing.assert_allclose(mapped_state._weights, phi(state._weights), rtol=1e-12, atol=1e-14 * scale)
        np.testing.assert_allclose(mapped_state.amplitudes, phi.permute(state.amplitudes), rtol=1e-12)
        if algo == "aashafa":
            assert not np.array_equal(state.amplitudes, np.ones(source.dim))

    def test_logistic_runs_differ(self):
        # Logistic is not odd, so it does not commute with the signs of Phi.
        source = Signature(3, 0)
        phi = SignedBladeMap(source, "q+1")
        logistic = get_activation("logistic")
        samples, _ = generate_signal(SignalSpec(kind="teacher", length=204, seed=6), source)
        samples = np.array([x.coeffs for x in samples])
        weights = np.random.default_rng(0).uniform(-0.1, 0.1, size=(4, source.dim))
        rows, _ = _train(source, samples, weights, "shafa", logistic)
        mapped_rows, _ = _train(phi.sig, phi(samples), phi(weights), "shafa", logistic)
        assert not np.allclose(mapped_rows, rows, rtol=1e-6)
