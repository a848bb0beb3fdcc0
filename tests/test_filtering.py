"""Filter forward path, gradients, training steps, convergence monitoring."""

import numpy as np
import pytest

from hyperfir import (
    IDENTITY,
    TANH,
    FilterConfig,
    FilterState,
    Multivector,
    NonFiniteSignalError,
    Signature,
    WrongSignatureError,
    ZeroPriorError,
    aashafa_step,
    convergence_factor,
    cost_gradient,
    finite_difference_gradient,
    forward,
    get_activation,
    init_state,
    lambda_bound,
    mu_bound,
    net_input,
    shafa_step,
    sqafa_step,
    state_from_text,
    state_to_text,
    window_energy,
)

from _util import random_mv

QUAT = Signature(0, 2)


def make_state(sig, taps, rng, amp=None, spread=1.0):
    weights = tuple(random_mv(sig, rng, -spread, spread) for _ in range(taps))
    amplitudes = np.ones(sig.dim) if amp is None else np.asarray(amp, dtype=float)
    return FilterState(weights=weights, amplitudes=amplitudes)


def make_window(sig, taps, rng, spread=1.0):
    return tuple(random_mv(sig, rng, -spread, spread) for _ in range(taps))


class TestConfig:
    def test_activation_resolved_from_name(self):
        config = FilterConfig(sig=QUAT, taps=2, activation="logistic")
        assert config.activation.name == "logistic"

    def test_mu_modes(self):
        fixed = FilterConfig(sig=QUAT, taps=1, mu=0.05)
        assert fixed.mu == 0.05 and fixed.mu_auto_frac is None
        auto = FilterConfig(sig=QUAT, taps=1, mu_auto_frac=0.2)
        assert auto.mu is None and auto.mu_auto_frac == 0.2
        with pytest.raises(ValueError):
            FilterConfig(sig=QUAT, taps=1, mu=-1.0)
        with pytest.raises(ValueError):
            FilterConfig(sig=QUAT, taps=1, mu_auto_frac=1.5)
        with pytest.raises(ValueError):
            FilterConfig(sig=QUAT, taps=0)

    def test_init_state(self):
        config = FilterConfig(sig=Signature(2, 1), taps=3, seed=42)
        state = init_state(config)
        assert state.taps == 3 and state.step == 0
        assert np.array_equal(state.amplitudes, np.ones(8))
        assert all(np.all(np.abs(w.coeffs) <= 0.1) for w in state.weights)
        again = init_state(config)
        assert all(a == b for a, b in zip(state.weights, again.weights))


class TestNetInput:
    def test_single_unit_tap(self):
        rng = np.random.default_rng(0)
        x = random_mv(QUAT, rng)
        one = Multivector.scalar(QUAT, 1.0)
        assert net_input((one,), (x,)) == x

    def test_quaternion_component_expansion(self):
        rng = np.random.default_rng(1)
        w, x = random_mv(QUAT, rng), random_mv(QUAT, rng)
        s = net_input((w,), (x,))
        wr, wi, wj, wk = w.coeffs
        xr, xi, xj, xk = x.coeffs
        expect = [
            wr * xr - wi * xi - wj * xj - wk * xk,
            wr * xi + wi * xr + wj * xk - wk * xj,
            wr * xj + wj * xr + wk * xi - wi * xk,
            wr * xk + wk * xr + wi * xj - wj * xi,
        ]
        assert np.allclose(s.coeffs, expect, rtol=1e-14)

    def test_two_taps_match_term_sum(self):
        rng = np.random.default_rng(2)
        sig = Signature(2, 1)
        w = make_window(sig, 2, rng)
        x = make_window(sig, 2, rng)
        s = net_input(w, x)
        assert np.allclose(s.coeffs, (w[0] * x[0] + w[1] * x[1]).coeffs, rtol=1e-14)

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            net_input((random_mv(QUAT, rng),), make_window(QUAT, 2, rng))


class TestForward:
    def test_identity_unit_amplitudes_pass_through(self):
        rng = np.random.default_rng(4)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        y, s = forward(state, window, IDENTITY)
        assert y == s

    def test_zero_weights_zero_output(self):
        state = FilterState(weights=(Multivector.zero(QUAT),) * 2, amplitudes=np.ones(4))
        rng = np.random.default_rng(5)
        y, s = forward(state, make_window(QUAT, 2, rng), TANH)
        assert y == Multivector.zero(QUAT) and s == Multivector.zero(QUAT)

    def test_amplitude_aware_components(self):
        rng = np.random.default_rng(6)
        sig = Signature(2, 1)
        amp = rng.uniform(0.5, 2.0, sig.dim)
        state = make_state(sig, 3, rng, amp=amp)
        window = make_window(sig, 3, rng)
        y, s = forward(state, window, TANH)
        for a in range(sig.dim):
            assert np.isclose(y.component(a), amp[a] * np.tanh(s.component(a)), rtol=1e-14)


class TestCostGradient:
    def test_zero_error_zero_gradient(self):
        rng = np.random.default_rng(7)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        y, _ = forward(state, window, TANH)
        grad = cost_gradient(state, window, y, TANH)
        assert all(g == Multivector.zero(QUAT) for g in grad)

    def test_quaternion_identity_activation_closed_form(self):
        # identity activation, one tap: gradient is -2 [e_r + e_i e1 + e_j e2 + e_k e12] x~
        rng = np.random.default_rng(8)
        state = make_state(QUAT, 1, rng)
        window = make_window(QUAT, 1, rng)
        d = random_mv(QUAT, rng)
        y, _ = forward(state, window, IDENTITY)
        e = d - y
        expect = (e * window[0].involution()) * -2.0
        grad = cost_gradient(state, window, d, IDENTITY)
        assert np.allclose(grad[0].coeffs, expect.coeffs, rtol=1e-14)

    @pytest.mark.parametrize("sig", [Signature(1, 0), QUAT, Signature(2, 1), Signature(2, 2)], ids=str)
    @pytest.mark.parametrize("phi_name", ["tanh", "logistic"])
    def test_matches_finite_differences(self, sig, phi_name):
        rng = np.random.default_rng(9)
        phi = get_activation(phi_name)
        for taps in (1, 3):
            amp = rng.uniform(0.5, 1.5, sig.dim)
            state = make_state(sig, taps, rng, amp=amp)
            window = make_window(sig, taps, rng)
            d = random_mv(sig, rng)
            grad = cost_gradient(state, window, d, phi)
            numeric = finite_difference_gradient(state, window, d, phi, h=1e-5)
            scale = max(max(g.modulus() for g in grad), 1e-9)
            for g, n in zip(grad, numeric):
                assert np.max(np.abs(g.coeffs - n.coeffs)) <= 1e-6 * scale


class TestFiniteDifferenceGradient:
    def test_near_zero_at_interpolation_point(self):
        rng = np.random.default_rng(10)
        state = make_state(QUAT, 1, rng)
        window = make_window(QUAT, 1, rng)
        y, _ = forward(state, window, TANH)
        numeric = finite_difference_gradient(state, window, y, TANH, h=1e-5)
        assert all(g.modulus() <= 1e-8 for g in numeric)

    def test_linear_scalar_case_analytic(self):
        # identity activation on Cl(1,0) restricted to scalars: E = (y - d)^2,
        # y = w x, so dE/dw = 2 (y - d) x
        sig = Signature(1, 0)
        w = Multivector.scalar(sig, 0.7)
        x = Multivector.scalar(sig, 1.3)
        d = Multivector.scalar(sig, -0.4)
        state = FilterState(weights=(w,), amplitudes=np.ones(2))
        numeric = finite_difference_gradient(state, (x,), d, IDENTITY, h=1e-6)
        y = 0.7 * 1.3
        assert np.isclose(numeric[0].component(0), 2 * (y - (-0.4)) * 1.3, rtol=1e-6)


class TestShafaStep:
    def test_zero_error_is_noop(self):
        rng = np.random.default_rng(11)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        y, _ = forward(state, window, TANH)
        new_state, record = shafa_step(state, window, y, 0.1, TANH)
        assert all(a == b for a, b in zip(new_state.weights, state.weights))
        assert record.cost == 0.0
        assert new_state.step == state.step + 1

    def test_matches_pipeline_decomposition_exactly(self):
        # forward -> error -> cost_gradient -> w - (mu/2) grad, bit for bit
        rng = np.random.default_rng(12)
        sig = Signature(1, 1)
        state = make_state(sig, 1, rng)
        window = make_window(sig, 1, rng)
        d = random_mv(sig, rng)
        mu = 0.03125
        grad = cost_gradient(state, window, d, TANH)
        expect = [w + (-0.5 * mu) * g for w, g in zip(state.weights, grad)]
        new_state, _ = shafa_step(state, window, d, mu, TANH)
        assert all(a == b for a, b in zip(new_state.weights, expect))

    def test_record_fields(self):
        rng = np.random.default_rng(13)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        d = random_mv(QUAT, rng)
        new_state, record = shafa_step(state, window, d, 0.05, TANH)
        assert record.e == d - record.y
        assert np.isclose(record.cost, record.e.modulus() ** 2, rtol=1e-12)
        assert record.mu_used == 0.05
        for w_new, w_old, dw in zip(new_state.weights, state.weights, record.delta_w):
            assert w_new == w_old + dw

    def test_rejects_nonfinite_input(self):
        rng = np.random.default_rng(14)
        state = make_state(QUAT, 1, rng)
        bad = Multivector(QUAT, [np.inf, 0, 0, 0])
        with pytest.raises(NonFiniteSignalError):
            shafa_step(state, (bad,), random_mv(QUAT, rng), 0.1, TANH)

    def test_amplitudes_untouched(self):
        rng = np.random.default_rng(15)
        amp = rng.uniform(0.5, 2.0, 4)
        state = make_state(QUAT, 1, rng, amp=amp)
        new_state, _ = shafa_step(state, make_window(QUAT, 1, rng), random_mv(QUAT, rng), 0.1, TANH)
        assert np.array_equal(new_state.amplitudes, amp)


class TestSqafaStep:
    def test_requires_quaternion_signature(self):
        rng = np.random.default_rng(16)
        sig = Signature(2, 0)
        state = make_state(sig, 1, rng)
        with pytest.raises(WrongSignatureError):
            sqafa_step(state, make_window(sig, 1, rng), random_mv(sig, rng), 0.1, TANH)

    def test_zero_error_is_noop(self):
        rng = np.random.default_rng(17)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        y, _ = forward(state, window, TANH)
        new_state, _ = sqafa_step(state, window, y, 0.1, TANH)
        assert all(a == b for a, b in zip(new_state.weights, state.weights))

    @pytest.mark.parametrize("phi_name", ["tanh", "logistic", "identity"])
    def test_agrees_with_shafa(self, phi_name):
        rng = np.random.default_rng(18)
        phi = get_activation(phi_name)
        for taps in (1, 2, 4):
            state = make_state(QUAT, taps, rng)
            window = make_window(QUAT, taps, rng)
            d = random_mv(QUAT, rng)
            s1, r1 = shafa_step(state, window, d, 0.07, phi)
            s2, r2 = sqafa_step(state, window, d, 0.07, phi)
            for a, b in zip(s1.weights, s2.weights):
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * max(a.modulus(), 1.0)
            assert np.isclose(r1.cost, r2.cost, rtol=1e-12)

    def test_linear_regime_error_decay(self):
        # identity activation and a realizable one-tap target behave like LMS:
        # the error norm decreases monotonically under the step-size bound
        rng = np.random.default_rng(19)
        target_w = random_mv(QUAT, rng)
        state = make_state(QUAT, 1, rng, spread=0.1)
        errors = []
        for _ in range(100):
            x = random_mv(QUAT, rng)
            d = target_w * x
            y, s = forward(state, (x,), IDENTITY)
            # |e| = |w* - w| |x| in the quaternion algebra; normalizing by
            # |x| exposes the monotone contraction of the weight error
            errors.append((d - y).modulus() / x.modulus())
            mu = 0.5 * mu_bound((x,), s, IDENTITY, state.amplitudes)
            state, _ = sqafa_step(state, (x,), d, mu, IDENTITY)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05 * errors[0]


class TestAashafaStep:
    def test_amplitude_update_arithmetic(self):
        # lambda = 1, rho = 0.1, e_A = 0.5, phi(s_A) = 0.2 -> 1.01
        sig = Signature(1, 0)
        state = FilterState(weights=(Multivector.scalar(sig, 1.0),), amplitudes=np.ones(2))
        # craft window so s = atanh(0.2) scalar, then d = y + 0.5 per component
        s_val = np.arctanh(0.2)
        window = (Multivector(sig, [s_val, s_val]),)
        y, s = forward(state, window, TANH)
        d = Multivector(sig, y.coeffs + 0.5)
        new_state, record = aashafa_step(state, window, d, mu=1e-9, rho=0.1, phi=TANH)
        assert np.allclose(new_state.amplitudes, [1.01, 1.01], rtol=1e-12)

    def test_zero_rho_freezes_amplitudes(self):
        rng = np.random.default_rng(20)
        state = make_state(QUAT, 2, rng)
        window = make_window(QUAT, 2, rng)
        d = random_mv(QUAT, rng)
        aa_state, aa_rec = aashafa_step(state, window, d, 0.05, 0.0, TANH)
        sh_state, sh_rec = shafa_step(state, window, d, 0.05, TANH)
        assert np.array_equal(aa_state.amplitudes, state.amplitudes)
        assert all(a == b for a, b in zip(aa_state.weights, sh_state.weights))

    def test_zero_error_is_noop(self):
        rng = np.random.default_rng(21)
        amp = rng.uniform(0.5, 2.0, 4)
        state = make_state(QUAT, 2, rng, amp=amp)
        window = make_window(QUAT, 2, rng)
        y, _ = forward(state, window, TANH)
        new_state, _ = aashafa_step(state, window, y, 0.05, 0.1, TANH)
        assert np.array_equal(new_state.amplitudes, amp)
        assert all(a == b for a, b in zip(new_state.weights, state.weights))

    def test_updates_from_old_state(self):
        # both updates must use the pre-step forward pass
        rng = np.random.default_rng(22)
        state = make_state(QUAT, 1, rng)
        window = make_window(QUAT, 1, rng)
        d = random_mv(QUAT, rng)
        y, s = forward(state, window, TANH)
        e = d - y
        expected_lam = state.amplitudes + 0.1 * e.coeffs * np.tanh(s.coeffs)
        new_state, _ = aashafa_step(state, window, d, 0.05, 0.1, TANH)
        assert np.allclose(new_state.amplitudes, expected_lam, rtol=1e-14)

    def test_amplitude_moves_with_error_sign(self):
        rng = np.random.default_rng(23)
        state = make_state(QUAT, 1, rng)
        window = make_window(QUAT, 1, rng)
        d = random_mv(QUAT, rng)
        y, s = forward(state, window, TANH)
        direction = (d - y).coeffs * np.tanh(s.coeffs)
        new_state, _ = aashafa_step(state, window, d, 0.05, 0.2, TANH)
        moved = new_state.amplitudes - state.amplitudes
        assert np.array_equal(np.sign(moved), np.sign(0.2 * direction))


class TestMuBound:
    def test_unit_scalar_window_identity(self):
        one = Multivector.scalar(QUAT, 1.0)
        s = Multivector.zero(QUAT)
        # |xx| = 1, |P|^2 = 4 -> 1/8
        assert mu_bound((one,), s, IDENTITY, np.ones(4)) == 0.125

    def test_quaternion_scalar_xx(self):
        rng = np.random.default_rng(24)
        window = make_window(QUAT, 3, rng)
        xx = window_energy(window)
        assert np.allclose(xx.coeffs[1:], 0.0, atol=1e-15)  # scalar for quaternions
        s = random_mv(QUAT, rng)
        lam = np.ones(4)
        bound = mu_bound(window, s, TANH, lam)
        p_sq = float(np.sum(np.array([1, 1, 1, 1]) * (1 - np.tanh(s.coeffs) ** 2) ** 2))
        assert np.isclose(bound, 1.0 / (2.0 * xx.coeffs[0] * p_sq), rtol=1e-12)

    def test_degenerate_window_capped(self):
        zero = Multivector.zero(QUAT)
        assert mu_bound((zero,), zero, TANH, np.ones(4)) == 1.0

    def test_always_positive(self):
        rng = np.random.default_rng(25)
        for sig in (Signature(1, 0), Signature(2, 1)):
            for _ in range(50):
                window = make_window(sig, 2, rng, spread=2.0)
                s = random_mv(sig, rng)
                assert mu_bound(window, s, TANH, np.ones(sig.dim)) > 0

    def test_nonscalar_xx_uses_modulus(self):
        # Cl(1,0): x = 1 + e1 gives x~ x = 2 (1 + e1), not scalar
        sig = Signature(1, 0)
        x = Multivector(sig, [1.0, 1.0])
        xx = window_energy((x,))
        assert np.array_equal(xx.coeffs, [2.0, 2.0])
        s = Multivector.zero(sig)
        bound = mu_bound((x,), s, IDENTITY, np.ones(2))
        assert np.isclose(bound, 1.0 / (2.0 * np.sqrt(8.0) * 2.0), rtol=1e-12)

    def test_window_energy_scalar_part_is_energy(self):
        # <x~ . x> = sum |x_l|^2 in every signature, scalar x~x or not
        rng = np.random.default_rng(34)
        for sig in (Signature(1, 0), Signature(2, 1), Signature(2, 2)):
            window = make_window(sig, 3, rng)
            xx = window_energy(window)
            assert np.isclose(xx.coeffs[0], sum(x.modulus() ** 2 for x in window), rtol=1e-12)


class TestConvergenceFactor:
    def _setup(self, rng, taps=2):
        state = make_state(QUAT, taps, rng)
        window = make_window(QUAT, taps, rng)
        d = random_mv(QUAT, rng)
        y, s = forward(state, window, TANH)
        return state, window, d, d - y, s

    def test_zero_mu_zero_factor(self):
        rng = np.random.default_rng(26)
        state, window, d, e, s = self._setup(rng)
        report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.0)
        assert report.m_factor == 0.0

    def test_zero_prior_rejected(self):
        rng = np.random.default_rng(27)
        state, window, d, e, s = self._setup(rng)
        with pytest.raises(ZeroPriorError):
            convergence_factor(window, Multivector.zero(QUAT), s, TANH, state.amplitudes, 0.1)

    def test_double_sum_form_agrees(self):
        # M via the structure-scalar double sum over blade pairs
        rng = np.random.default_rng(28)
        for sig in (QUAT, Signature(2, 1)):
            taps = 2
            state = make_state(sig, taps, rng)
            window = make_window(sig, taps, rng)
            d = random_mv(sig, rng)
            y, s = forward(state, window, TANH)
            e = d - y
            mu = 0.01
            report = convergence_factor(window, e, s, TANH, state.amplitudes, mu)
            xx = window_energy(window)
            slopes = state.amplitudes * (1 - np.tanh(s.coeffs) ** 2)
            total = 0.0
            for a in range(sig.dim):
                ea = Multivector.basis_blade(sig, a)
                for b in range(sig.dim):
                    eb = Multivector.basis_blade(sig, b)
                    weight = (xx * eb.involution() * ea).component(0)
                    total += e.coeffs[a] * slopes[a] * e.coeffs[b] * slopes[b] * weight
            m_double = 2.0 * mu * total / e.modulus() ** 2
            assert np.isclose(report.m_factor, m_double, rtol=1e-12)

    def test_below_one_under_half_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            state, window, d, e, s = self._setup(rng)
            if e.modulus() < 1e-9:
                continue
            bound = mu_bound(window, s, TANH, state.amplitudes)
            report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.5 * bound)
            assert 0.0 <= report.m_factor < 1.0

    def test_report_fields(self):
        rng = np.random.default_rng(30)
        state, window, d, e, s = self._setup(rng)
        report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.02)
        assert report.xx_is_scalar  # quaternion window
        assert report.p_sq > 0
        assert report.mu_bound == mu_bound(window, s, TANH, state.amplitudes)
        expect_f = e.coeffs * state.amplitudes * (1 - np.tanh(s.coeffs) ** 2)
        assert np.allclose(report.f.coeffs, expect_f, rtol=1e-14)

    def test_nonscalar_window_energy_flagged(self):
        sig = Signature(1, 0)
        window = (Multivector(sig, [1.0, 1.0]),)  # x~ x = 2(1 + e1)
        s = Multivector.zero(sig)
        e = Multivector.scalar(sig, 0.5)
        report = convergence_factor(window, e, s, TANH, np.ones(2), 0.01)
        assert not report.xx_is_scalar
        assert np.array_equal(report.xx.coeffs, [2.0, 2.0])


class TestLambdaBound:
    def test_direct_substitution(self):
        # <xx> = 1, phi' = 1, mu = 0.5 -> bound 1
        sig = Signature(1, 0)
        window = (Multivector.scalar(sig, 1.0),)
        s = Multivector.zero(sig)
        assert lambda_bound(window, s, IDENTITY, 0.5, 0) == 1.0

    def test_mu_scaling(self):
        sig = Signature(1, 0)
        window = (Multivector.scalar(sig, 1.0),)
        s = Multivector.zero(sig)
        b1 = lambda_bound(window, s, TANH, 0.1, 0)
        b2 = lambda_bound(window, s, TANH, 0.2, 0)
        assert np.isclose(b2, b1 / np.sqrt(2.0), rtol=1e-12)

    def test_scalar_energy_example(self):
        # identity activation, one tap, x = 2 in Cl(1,0): <xx> = 4, mu = 0.125 -> 1
        sig = Signature(1, 0)
        window = (Multivector.scalar(sig, 2.0),)
        s = Multivector.zero(sig)
        assert lambda_bound(window, s, IDENTITY, 0.125, 0) == 1.0

    def test_degenerate_capped(self):
        sig = Signature(1, 0)
        window = (Multivector.zero(sig),)
        s = Multivector.zero(sig)
        assert lambda_bound(window, s, TANH, 0.5, 0) == 1e6

    def test_componentwise_error_recursion(self):
        # the bound comes from |e_post_A|^2 = |e_prior_A|^2 (1 - 2 mu lam_A^2
        # phi'(s_A)^2 <xx>) under the single-component weight update; check the
        # first-order relation numerically (residual shrinks ~4x when mu halves)
        rng = np.random.default_rng(35)
        sig = QUAT
        bits = 2
        residuals = []
        state = make_state(sig, 2, rng, amp=rng.uniform(0.8, 1.4, 4))
        window = make_window(sig, 2, rng)
        d = random_mv(sig, rng)
        y, s = forward(state, window, TANH)
        e = d - y
        lam_a = state.amplitudes[bits]
        slope_a = float((1 - np.tanh(s.coeffs) ** 2)[bits])
        xx0 = float(window_energy(window).coeffs[0])
        e_a = e.component(bits)
        for mu in (2e-3, 1e-3):
            direction = Multivector.basis_blade(sig, bits, e_a * lam_a * slope_a)
            new_weights = tuple(
                w + mu * (direction * x.involution()) for w, x in zip(state.weights, window)
            )
            y2, _ = forward(
                FilterState(weights=new_weights, amplitudes=state.amplitudes), window, TANH
            )
            e_post_a = d.component(bits) - y2.component(bits)
            predicted = e_a**2 * (1 - 2 * mu * lam_a**2 * slope_a**2 * xx0)
            residuals.append(abs(e_post_a**2 - predicted))
        assert 3.0 <= residuals[0] / residuals[1] <= 5.0


class TestStateSnapshot:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(31)
        sig = Signature(2, 1)
        state = FilterState(
            weights=tuple(random_mv(sig, rng) for _ in range(3)),
            amplitudes=rng.uniform(0.5, 2.0, sig.dim),
            step=17,
        )
        text = state_to_text(state, "logistic")
        again, name = state_from_text(text)
        assert name == "logistic"
        assert again.step == 17
        assert all(a == b for a, b in zip(again.weights, state.weights))
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_header_shape(self):
        rng = np.random.default_rng(32)
        state = make_state(QUAT, 2, rng)
        text = state_to_text(state, "tanh")
        assert text.splitlines()[0] == "0,2,2,tanh,0"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            state_from_text("")
        with pytest.raises(ValueError):
            state_from_text("0,2,2,tanh\n")
        rng = np.random.default_rng(33)
        text = state_to_text(make_state(QUAT, 2, rng), "tanh")
        with pytest.raises(ValueError):
            state_from_text(text.replace("tanh", "relu"))

    def test_rejects_non_finite_amplitudes(self):
        rng = np.random.default_rng(34)
        lines = state_to_text(make_state(QUAT, 2, rng), "tanh").splitlines()
        for amps in ("[nan, 1.0, 1.0, 1.0]", "[1.0, 1.0, inf, 1.0]", "[1.0, -inf, 1.0, 1.0]"):
            with pytest.raises(ValueError, match="finite"):
                state_from_text("\n".join(lines[:-1] + [amps]))

    def test_amplitude_line_is_lexical_order(self):
        # Cl(2,1): bitmask order [0,1,2,3,4,5,6,7] vs lexical [0,1,2,4,3,5,6,7]
        sig = Signature(2, 1)
        state = FilterState(
            weights=(Multivector.zero(sig),),
            amplitudes=np.arange(1.0, 9.0),
        )
        amp_line = state_to_text(state, "tanh").splitlines()[-1]
        assert amp_line == "[1.0, 2.0, 3.0, 5.0, 4.0, 6.0, 7.0, 8.0]"
        again, _ = state_from_text(state_to_text(state, "tanh"))
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_file_roundtrip(self, tmp_path):
        from hyperfir import load_state, save_state

        rng = np.random.default_rng(36)
        state = make_state(QUAT, 3, rng, amp=rng.uniform(0.5, 2.0, 4))
        path = tmp_path / "state.txt"
        save_state(state, "tanh", path)
        again, name = load_state(path)
        assert name == "tanh"
        assert all(a == b for a, b in zip(again.weights, state.weights))
        assert np.array_equal(again.amplitudes, state.amplitudes)
