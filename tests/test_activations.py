"""Split nonlinearities: registry, derivatives, componentwise application."""

import numpy as np
import pytest

from hyperfir import (
    IDENTITY,
    LOGISTIC,
    TANH,
    Multivector,
    Signature,
    get_activation,
    split_apply_amplitude,
)

from _util import split_apply, split_apply_deriv

QUAT = Signature(0, 2)


class TestRegistry:
    def test_lookup(self):
        assert get_activation("tanh") is TANH
        assert get_activation("logistic") is LOGISTIC
        assert get_activation("identity") is IDENTITY
        with pytest.raises(ValueError):
            get_activation("relu")

    def test_boundedness_flags(self):
        assert TANH.bounded and LOGISTIC.bounded
        assert not IDENTITY.bounded


class TestScalarBehaviour:
    @pytest.mark.parametrize("phi", [TANH, LOGISTIC, IDENTITY], ids=lambda a: a.name)
    def test_derivative_matches_finite_difference(self, phi):
        t = np.linspace(-10.0, 10.0, 2001)
        h = 1e-6
        numeric = (phi.func(t + h) - phi.func(t - h)) / (2 * h)
        analytic = phi.deriv(t)
        assert np.allclose(analytic, numeric, rtol=1e-8, atol=1e-8)

    def test_bounded_ranges(self):
        t = np.linspace(-50.0, 50.0, 1001)
        assert np.all(np.abs(TANH.func(t)) <= 1.0)
        y = LOGISTIC.func(t)
        assert np.all((y >= 0.0) & (y <= 1.0))

    def test_logistic_stable_at_extremes(self):
        vals = LOGISTIC.func(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0 and vals[1] == 1.0

    def test_logistic_bits_match_the_partitioned_form(self):
        # The logistic takes 1 / (1 + e^-t) at t >= 0 and e^t / (1 + e^t)
        # below, elementwise: the same bits as computing each side on its own
        # boolean-indexed part, for signed zeros, infinities, NaNs of both
        # signs, subnormals and |t| past exp's overflow at 709.8, in 0-d, 1-d
        # and 2-d arrays.
        def partitioned(t):
            out = np.empty_like(t)
            pos = t >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
            et = np.exp(t[~pos])
            out[~pos] = et / (1.0 + et)
            return out

        tiny = np.finfo(float).smallest_subnormal
        special = [0.0, np.inf, np.nan, tiny, 2 * tiny, np.finfo(float).tiny, 1e-300, 36.7, 709.78, 745.2, 800.0]
        special = np.array(special + [-x for x in special] + [np.copysign(np.nan, -1.0)])
        rng = np.random.default_rng(7)
        grid = np.concatenate([special, np.linspace(-800.0, 800.0, 16001), rng.standard_normal(4000) * 40.0])
        for t in (grid, grid.reshape(-1, 8), *map(np.array, special)):
            got = LOGISTIC.func(t)
            assert type(got) is np.ndarray and got.shape == t.shape
            assert got.tobytes() == partitioned(t).tobytes()
            assert LOGISTIC.deriv(t).tobytes() == (partitioned(t) * (1.0 - partitioned(t))).tobytes()


class TestSplitApply:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        x = Multivector(QUAT, rng.uniform(-2, 2, 4))
        assert split_apply(IDENTITY, x) == x

    def test_tanh_at_zero(self):
        assert split_apply(TANH, Multivector.zero(QUAT)) == Multivector.zero(QUAT)

    def test_componentwise(self):
        x = Multivector(QUAT, [0.5, 2.0, 0.0, 0.0])
        y = split_apply(TANH, x)
        assert np.array_equal(y.coeffs, [np.tanh(0.5), np.tanh(2.0), 0.0, 0.0])

    def test_componentwise_consistency_random(self):
        rng = np.random.default_rng(1)
        for sig in (QUAT, Signature(2, 1)):
            x = Multivector(sig, rng.uniform(-4, 4, sig.dim))
            y = split_apply(TANH, x)
            for a in range(sig.dim):
                assert y.component(a) == np.tanh(x.component(a))

    def test_boundedness(self):
        rng = np.random.default_rng(2)
        x = Multivector(Signature(3, 1), rng.uniform(-100, 100, 16))
        assert np.all(np.abs(split_apply(TANH, x).coeffs) <= 1.0)


class TestSplitApplyDeriv:
    def test_identity_all_ones(self):
        rng = np.random.default_rng(3)
        x = Multivector(QUAT, rng.uniform(-3, 3, 4))
        assert np.array_equal(split_apply_deriv(IDENTITY, x), np.ones(4))

    def test_tanh_at_zero(self):
        assert np.array_equal(split_apply_deriv(TANH, Multivector.zero(QUAT)), np.ones(4))

    def test_different_arguments_per_component(self):
        x = Multivector(QUAT, [0.5, 2.0, 0.0, 0.0])
        d = split_apply_deriv(TANH, x)
        sech2 = lambda t: 1.0 / np.cosh(t) ** 2
        assert np.allclose(d, [sech2(0.5), sech2(2.0), 1.0, 1.0], rtol=1e-12)
        assert not np.allclose(d, d[0])  # genuinely distinct arguments

    def test_matches_split_apply_finite_difference(self):
        rng = np.random.default_rng(4)
        sig = Signature(2, 1)
        x = Multivector(sig, rng.uniform(-3, 3, sig.dim))
        h = 1e-5
        for phi in (TANH, LOGISTIC):
            d = split_apply_deriv(phi, x)
            for a in range(sig.dim):
                bump = np.zeros(sig.dim)
                bump[a] = h
                plus = split_apply(phi, Multivector(sig, x.coeffs + bump))
                minus = split_apply(phi, Multivector(sig, x.coeffs - bump))
                numeric = (plus.component(a) - minus.component(a)) / (2 * h)
                assert abs(d[a] - numeric) <= 1e-7 * max(abs(numeric), 1.0)


class TestSplitApplyAmplitude:
    def test_unit_amplitudes_reduce_to_split_apply(self):
        rng = np.random.default_rng(5)
        x = Multivector(QUAT, rng.uniform(-2, 2, 4))
        assert split_apply_amplitude(np.ones(4), TANH, x) == split_apply(TANH, x)

    def test_zero_amplitudes(self):
        rng = np.random.default_rng(6)
        x = Multivector(QUAT, rng.uniform(-2, 2, 4))
        assert split_apply_amplitude(np.zeros(4), TANH, x) == Multivector.zero(QUAT)

    def test_single_component_scaling(self):
        lam = np.array([2.0, 0.0, 0.0, 0.0])
        x = Multivector.scalar(QUAT, 0.5)
        y = split_apply_amplitude(lam, TANH, x)
        assert np.array_equal(y.coeffs, [2.0 * np.tanh(0.5), 0.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            split_apply_amplitude(np.ones(3), TANH, Multivector.zero(QUAT))
