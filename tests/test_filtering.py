"""Filter forward path, gradients, training steps, convergence monitoring."""

import re

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
    SignalSpec,
    ZeroPriorError,
    aashafa_step,
    convergence_factor,
    cost_gradient,
    forward,
    get_activation,
    init_state,
    lambda_bound,
    mu_bound,
    net_input,
    product_table,
    shafa_step,
    state_from_text,
    state_to_text,
    window_energy,
)
from hyperfir import experiments, filtering
from hyperfir.algebra import TABLE_MAX_DIMENSION, SignatureMismatchError
from hyperfir.filtering import (
    LAMBDA_BOUND_CAP,
    MU_BOUND_CAP,
    SCALAR_XX_RTOL,
    _fill_row,
    _Row,
    _signal_windows,
    _sq_sum,
    _window,
    _xx_parts,
)

from _util import (
    EQUIVALENCE_SIGS,
    WrongSignatureError,
    all_signatures,
    convergence_factor_oracle,
    directions_reference,
    finite_difference_gradient,
    net_input_reference,
    random_mv,
    right_matrix,
    sqafa_step,
    square_sum_reference,
)

QUAT = Signature(0, 2)


def make_state(sig, taps, rng, amp=None, spread=1.0):
    weights = tuple(random_mv(sig, rng, -spread, spread) for _ in range(taps))
    amplitudes = np.ones(sig.dim) if amp is None else np.asarray(amp, dtype=float)
    return FilterState(weights=weights, amplitudes=amplitudes)


def make_window(sig, taps, rng, spread=1.0):
    return tuple(random_mv(sig, rng, -spread, spread) for _ in range(taps))


def _directions(e, s, lambdas, phi, window):
    # The error direction F and its per-tap directions F (x_l)~, row l of an
    # (L, dim) array, as the record of a row with error e computes them.
    row = _Row(_window(window, e.sig), s, phi, np.asarray(lambdas, dtype=float), e=e)
    return row.f, row.directions


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
        with pytest.raises(ValueError, match=r"^set either mu or mu_auto_frac$"):
            FilterConfig(sig=QUAT, taps=1, mu=None, mu_auto_frac=None)

    @pytest.mark.parametrize("field", ["taps", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0, np.float64(2.0), "2"], ids=repr)
    def test_rejects_non_integer_counts(self, field, value):
        # taps=True used to train a 1-tap filter, and taps=2.5 or seed=1.5 to
        # fail later with a TypeError from inside numpy.
        with pytest.raises(ValueError, match="integers"):
            FilterConfig(sig=QUAT, **{"taps": 2, field: value})

    @pytest.mark.parametrize("seed", [-1, np.int32(-4)], ids=repr)
    def test_rejects_negative_seed(self, seed):
        # A negative seed used to pass here and fail in init_state, inside
        # numpy's generator, with a message that names no field.
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -\d$"):
            FilterConfig(sig=QUAT, taps=2, seed=seed)
        assert FilterConfig(sig=QUAT, taps=2, seed=0).seed == 0

    def test_numpy_integer_counts_stored_as_int(self):
        config = FilterConfig(sig=QUAT, taps=np.int64(3), seed=np.int32(4))
        assert (type(config.taps), type(config.seed)) == (int, int)
        assert init_state(config).taps == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_mu_and_rho(self, value):
        with pytest.raises(ValueError, match="finite"):
            FilterConfig(sig=QUAT, taps=1, mu=value)
        with pytest.raises(ValueError, match="finite"):
            FilterConfig(sig=QUAT, taps=1, rho=value)

    @pytest.mark.parametrize("field", ["mu", "mu_auto_frac", "rho"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", b"0.1", [0.1], 0.1j], ids=repr)
    def test_rejects_non_real_step_sizes_and_rates(self, field, value):
        # mu=True and rho=True used to be stored as bools, and mu="0.1" to
        # fail with a TypeError.
        with pytest.raises(ValueError, match=rf"^mu, mu_auto_frac and rho must be real numbers, got {field}="):
            FilterConfig(sig=QUAT, taps=1, **{field: value})

    @pytest.mark.parametrize("sig", [(0, 2), "Cl(0,2)", None, 2], ids=repr)
    def test_rejects_a_sig_that_is_not_a_signature(self, sig):
        # sig=(0, 2) used to construct, and run_training to fail with an
        # AttributeError ('tuple' object has no attribute 'dim').
        with pytest.raises(ValueError, match=r"^sig must be a Signature, got "):
            FilterConfig(sig=sig, taps=4)

    @pytest.mark.parametrize("activation", [5, None, TANH.func, ("tanh",)], ids=repr)
    def test_rejects_an_activation_that_is_neither_a_name_nor_an_activation(self, activation):
        # activation=5 used to construct, and run_training to fail with an
        # AttributeError ('int' object has no attribute 'func').
        with pytest.raises(ValueError, match=r"^activation must be an Activation or its name, got "):
            FilterConfig(sig=QUAT, taps=4, activation=activation)

    @pytest.mark.parametrize("value", ["no", "", 1, 0, 1.0, None, [True]], ids=repr)
    def test_rejects_an_adaptive_amplitude_that_is_not_a_bool(self, value):
        # adaptive_amplitude="no" used to construct, and run_training to fail
        # with "config.adaptive_amplitude=no contradicts algo='aashafa'".
        with pytest.raises(ValueError, match=r"^adaptive_amplitude must be a bool, got "):
            FilterConfig(sig=QUAT, taps=4, adaptive_amplitude=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
    def test_python_and_numpy_bools_stored_as_bool(self, value):
        config = FilterConfig(sig=QUAT, taps=4, adaptive_amplitude=value)
        assert config.adaptive_amplitude is bool(value)

    def test_rejects_missing_rho(self):
        with pytest.raises(ValueError, match="real numbers, got rho=None"):
            FilterConfig(sig=QUAT, taps=1, rho=None)

    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.25), 0.25], ids=repr)
    def test_python_and_numpy_reals_stored_as_given(self, value):
        fixed = FilterConfig(sig=QUAT, taps=1, mu=value, rho=value)
        assert fixed.mu is value and fixed.rho is value and fixed.mu_auto_frac is None
        assert FilterConfig(sig=QUAT, taps=1, mu_auto_frac=value / 2).mu_auto_frac == value / 2

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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            net_input((), ())

    def test_weight_array_matches_weight_values(self):
        # The (L, dim) array a state keeps gives the bits of its weight values.
        rng = np.random.default_rng(4)
        for sig in (QUAT, Signature(0, 6), Signature(5, 4)):
            state = make_state(sig, 3, rng)
            window = make_window(sig, 3, rng)
            assert state._weights.shape == (3, sig.dim) and not state._weights.flags.writeable
            assert _bits(net_input(state._weights, window).coeffs) == _bits(net_input(state.weights, window).coeffs)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 2), (2, 8), (2, 4, 1), (2, 2, 2)], ids=str)
    def test_weight_array_of_another_shape_rejected(self, shape):
        # Two samples of Cl(0,2) need a (2, 4) array.
        window = make_window(QUAT, 2, np.random.default_rng(5))
        with pytest.raises(ValueError, match=r"weight array for Cl\(0,2\), got shape"):
            net_input(np.zeros(shape), window)

    def test_weights_of_another_algebra_rejected(self):
        # Same dimension, other metric: only the signature check can tell them apart.
        rng = np.random.default_rng(6)
        window = make_window(QUAT, 2, rng)
        for weights in (make_window(Signature(2, 0), 2, rng), (random_mv(QUAT, rng), random_mv(Signature(1, 1), rng))):
            with pytest.raises(SignatureMismatchError, match="signature"):
                net_input(weights, window)

    def test_forward_checks_its_window_against_the_state(self):
        # The state's weight array holds no signature, so forward checks the
        # window against the state's own.
        rng = np.random.default_rng(7)
        state = make_state(QUAT, 2, rng)
        other = Signature(2, 0)
        samples = [random_mv(other, rng) for _ in range(2)]
        for window in (tuple(samples), next(_signal_windows(other, samples, 2))):
            with pytest.raises(SignatureMismatchError, match="signature"):
                forward(state, window, TANH)


#: Every signature with n <= 6 (right-multiplication matrices), and Cl(5,4)
#: and Cl(4,4) (split path).
KERNEL_SIGS = [*all_signatures(6), Signature(5, 4), Signature(4, 4)]


@pytest.mark.parametrize("sig", KERNEL_SIGS, ids=str)
class TestSharedLeftMatrixBits:
    """The row's products give the bits of the same gemv calls on `right_matrix`'s matrices.

    Up to n = 6 the net input is one gemv of [R(x_0) ... R(x_{L-1})] on the
    stacked weights and the tap directions one gemv of each R(x~_l) on F,
    with R built from blade products alone (`_util.right_matrix`); above
    n = 6 they are one table product per tap.  The class keeps the name it
    had when the row used left matrices, so that its test ids stay stable.
    """

    def _case(self, sig, seed):
        rng = np.random.default_rng(seed)
        taps = 2 if sig.n > TABLE_MAX_DIMENSION else 4
        state = make_state(sig, taps, rng, amp=rng.uniform(0.5, 1.5, sig.dim))
        window = make_window(sig, taps, rng)
        return state, window, random_mv(sig, rng), random_mv(sig, rng)

    def test_net_input_matches_per_tap_products(self, sig):
        state, window, _, _ = self._case(sig, 40)
        expect = net_input_reference(state.weights, window)
        assert _bits(net_input(state.weights, window).coeffs) == _bits(expect)  # cold caches
        assert _bits(net_input(state.weights, window).coeffs) == _bits(expect)  # warm caches

    def test_direction_rows_match_products(self, sig):
        _, window, e, s = self._case(sig, 41)
        lambdas = np.random.default_rng(42).uniform(0.5, 1.5, sig.dim)
        f, rows = _directions(e, s, lambdas, TANH, window)
        assert rows.shape == (len(window), sig.dim)
        assert _bits(rows) == _bits(directions_reference(f.coeffs, window))

    def test_m_factor_matches_oracle(self, sig):
        state, window, e, s = self._case(sig, 43)
        report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.02)
        assert report.m_factor == convergence_factor_oracle(window, e, s, TANH, state.amplitudes, 0.02)

    def test_multiply_rows_matches_per_row_products(self, sig):
        rng = np.random.default_rng(45)
        table = product_table(sig)
        a, x = rng.standard_normal((2, 3, sig.dim))
        assert _bits(table.multiply_rows(a, x)) == _bits([table.multiply(a_l, x_l) for a_l, x_l in zip(a, x)])
        assert _bits(table.multiply_rows(a[0], x)) == _bits([table.multiply(a[0], x_l) for x_l in x])

    def test_weight_update_matches_products(self, sig):
        state, window, d, _ = self._case(sig, 44)
        mu = 0.05
        new_state, record = shafa_step(state, window, d, mu, TANH)
        f, _ = _directions(record.e, record.s, state.amplitudes, TANH, window)
        for w_new, w, direction in zip(new_state.weights, state.weights, directions_reference(f.coeffs, window)):
            assert _bits(w_new.coeffs) == _bits(w.coeffs + direction * mu)


def _window_forms(sig, rng, taps=3):
    # One window as a list, a tuple and the stacked window run_training
    # passes: the first of _signal_windows over the same samples.
    samples = [random_mv(sig, rng) for _ in range(taps)]  # oldest first
    window = samples[::-1]
    return {"list": list(window), "tuple": tuple(window), "stacked": next(_signal_windows(sig, samples, taps))}


def _bits(*arrays) -> list:
    return [np.asarray(a, dtype=float).view(np.int64).tolist() for a in arrays]


@pytest.mark.parametrize("phi", [TANH, get_activation("logistic"), IDENTITY], ids=lambda phi: phi.name)
@pytest.mark.parametrize("sig", EQUIVALENCE_SIGS, ids=str)
def test_unit_amplitude_record_matches_general_record_bit_for_bit(sig, phi):
    # With every amplitude exactly 1.0 the record skips its products with
    # them; x * 1.0 = x keeps every field's bits, also for net inputs that
    # hold +-inf, NaNs of both signs and -0.0, and for targets that hold -0.0.
    rng = np.random.default_rng(sig.dim)
    window = _window(make_window(sig, 2 if sig.n > TABLE_MAX_DIMENSION else 4, rng))
    ones = filtering._freeze(np.ones(sig.dim))
    specials = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0]
    for trial in range(2 * len(specials)):
        s = rng.uniform(-3.0, 3.0, sig.dim)
        d = rng.uniform(-1.0, 1.0, sig.dim)
        s[trial % sig.dim] = specials[trial % len(specials)]
        s[(trial + 1) % sig.dim] = specials[(trial + 3) % len(specials)]
        d[trial % sig.dim] = -0.0
        fields = []
        for unit in (True, False):
            row = _Row(window, Multivector(sig, s), phi, ones, d=Multivector(sig, d), xx=window.xx, unit=unit)
            fields.append(_bits(
                row.value, row.deriv, row.y.coeffs, row.e.coeffs, row.e_sq, row.f.coeffs, row.directions,
                row.p_sq, row.bound, row.m_sum,
            ))
        assert fields[0] == fields[1], (trial, s, d)


@pytest.mark.parametrize("sig", [Signature(1, 0), QUAT, Signature(2, 1), Signature(0, 6), Signature(5, 4)], ids=str)
class TestWindowBoundary:
    """A list, a tuple and run_training's stacked window give the same bits and the same errors."""

    def test_forms_give_identical_results(self, sig):
        rng = np.random.default_rng(50)
        forms = _window_forms(sig, rng)
        state = make_state(sig, 3, rng, amp=rng.uniform(0.5, 1.5, sig.dim))
        e, s = random_mv(sig, rng), random_mv(sig, rng)
        mu = 0.02
        results = {}
        for name, window in forms.items():
            report = convergence_factor(window, e, s, TANH, state.amplitudes, mu)
            results[name] = _bits(
                net_input(state.weights, window).coeffs,
                net_input(state._weights, window).coeffs,
                window_energy(window).coeffs,
                mu_bound(window, s, TANH, state.amplitudes),
                report.m_factor, report.mu_bound, report.p_sq, report.f.coeffs, report.xx.coeffs,
                [lambda_bound(window, s, TANH, mu, bits) for bits in range(sig.dim)],
            ) + [report.xx_is_scalar]
        assert results["list"] == results["tuple"] == results["stacked"]

    def test_empty_window_rejected(self, sig):
        rng = np.random.default_rng(51)
        state = make_state(sig, 2, rng)
        e, s = random_mv(sig, rng), random_mv(sig, rng)
        for empty in ([], ()):
            for call in (
                lambda: net_input((), empty),
                lambda: window_energy(empty),
                lambda: mu_bound(empty, s, TANH, state.amplitudes),
                lambda: convergence_factor(empty, e, s, TANH, state.amplitudes, 0.1),
                lambda: lambda_bound(empty, s, TANH, 0.1, 0),
            ):
                with pytest.raises(ValueError, match=r"^window must hold at least one sample$"):
                    call()
            with pytest.raises(ValueError, match=r"^window length 0 != tap count 2$"):
                shafa_step(state, empty, e, 0.1, TANH)

    def test_length_mismatch_rejected(self, sig):
        rng = np.random.default_rng(52)
        state = make_state(sig, 2, rng)
        d = random_mv(sig, rng)
        for window in _window_forms(sig, rng).values():
            for call in (
                lambda: net_input(state.weights, window),
                lambda: net_input(state._weights, window),
                lambda: forward(state, window, TANH),
                lambda: cost_gradient(state, window, d, TANH),
                lambda: shafa_step(state, window, d, 0.1, TANH),
                lambda: aashafa_step(state, window, d, 0.1, 0.01, TANH),
            ):
                with pytest.raises(ValueError, match=r"^window length 3 != tap count 2$"):
                    call()

    def test_mixed_signatures_rejected(self, sig):
        # Same dimension, other metric: only the signature check can tell them apart.
        other = Signature(sig.q, sig.p) if sig.p != sig.q else Signature(sig.p + 1, sig.q - 1)
        rng = np.random.default_rng(53)
        state = make_state(sig, 2, rng)
        e, s = random_mv(sig, rng), random_mv(sig, rng)
        mixed = (random_mv(sig, rng), random_mv(other, rng))
        foreign = next(_signal_windows(other, [random_mv(other, rng) for _ in range(2)], 2))
        for window in (list(mixed), mixed, mixed[::-1], foreign):
            calls = [
                lambda: net_input(state.weights, window),
                lambda: mu_bound(window, s, TANH, state.amplitudes),
                lambda: convergence_factor(window, e, s, TANH, state.amplitudes, 0.1),
                lambda: lambda_bound(window, s, TANH, 0.1, 0),
                lambda: shafa_step(state, window, e, 0.1, TANH),
                lambda: aashafa_step(state, window, e, 0.1, 0.01, TANH),
                lambda: cost_gradient(state, window, e, TANH),
            ]
            if window is not foreign:
                calls.append(lambda: window_energy(window))
            for call in calls:
                with pytest.raises(SignatureMismatchError, match="signature"):
                    call()

    def test_run_window_of_an_equal_signature_object(self, sig):
        # A run window whose signature equals the state's without being the
        # same object passes every signature check and gives the bits of a
        # run window of the state's own signature object.
        twin = Signature(sig.p, sig.q)
        assert twin == sig and twin is not sig
        rng = np.random.default_rng(56)
        samples = [random_mv(sig, rng) for _ in range(3)]
        state = make_state(sig, 3, rng, amp=rng.uniform(0.5, 1.5, sig.dim))
        d, e = random_mv(sig, rng), random_mv(sig, rng)
        results = []
        for window_sig in (sig, twin):
            window = next(_signal_windows(window_sig, samples, 3))
            assert window.sig is window_sig
            y, s = forward(state, window, TANH)
            report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.02)
            new, record = aashafa_step(state, window, d, 0.02, 0.01, TANH)
            results.append(_bits(
                y.coeffs, s.coeffs, [g.coeffs for g in cost_gradient(state, window, d, TANH)],
                shafa_step(state, window, d, 0.02, TANH)[0]._weights, new._weights, new.amplitudes,
                record.e.coeffs, record.cost, mu_bound(window, s, TANH, state.amplitudes),
                lambda_bound(window, s, TANH, 0.02, 1), window_energy(window).coeffs,
            ) + _report_bits(report))
        assert results[0] == results[1]

    def test_target_of_another_algebra_rejected(self, sig):
        # Same dimension, other metric: only the signature check can tell them apart.
        other = Signature(sig.q, sig.p) if sig.p != sig.q else Signature(sig.p + 1, sig.q - 1)
        rng = np.random.default_rng(57)
        state = make_state(sig, 3, rng)
        d = random_mv(other, rng)
        for window in _window_forms(sig, rng).values():
            for call in (
                lambda: shafa_step(state, window, d, 0.1, TANH),
                lambda: aashafa_step(state, window, d, 0.1, 0.01, TANH),
                lambda: cost_gradient(state, window, d, TANH),
            ):
                with pytest.raises(SignatureMismatchError, match=re.escape(f"cannot combine {other} with {sig}")):
                    call()

    def test_non_finite_sample_rejected_by_steps(self, sig):
        rng = np.random.default_rng(54)
        state = make_state(sig, 3, rng)
        d = random_mv(sig, rng)
        good = [random_mv(sig, rng), random_mv(sig, rng)]
        for value in (np.nan, np.inf):  # an inf sample makes the stacked x~.x warn, a NaN one does not
            bad = Multivector(sig, np.where(np.arange(sig.dim) == sig.dim - 1, value, 1.0))
            samples = [good[0], bad, good[1]]  # oldest first
            with np.errstate(all="ignore"):
                stacked = next(_signal_windows(sig, samples, 3))
            for window in (samples[::-1], tuple(samples[::-1]), stacked):
                with pytest.raises(NonFiniteSignalError):
                    shafa_step(state, window, d, 0.1, TANH)
                with pytest.raises(NonFiniteSignalError):
                    aashafa_step(state, window, d, 0.1, 0.01, TANH)
        inf_target = Multivector(sig, np.full(sig.dim, np.inf))
        with pytest.raises(NonFiniteSignalError):
            shafa_step(state, tuple(samples[::-1][:1] * 3), inf_target, 0.1, TANH)


def _report_bits(report) -> list:
    return _bits(report.p_sq, report.f.coeffs, report.m_factor, report.mu_bound, report.xx.coeffs) + [
        report.xx_is_scalar
    ]


@pytest.mark.parametrize("sig", [QUAT, Signature(4, 1), Signature(5, 4)], ids=str)
class TestRowRecord:
    """A run window's filed record serves a call only with the very objects it was built from."""

    def _run_window(self, sig, rng):
        # A window as run_training passes it, and the same samples as a plain
        # tuple, which is stacked afresh on every call.
        taps = 2 if sig.n > TABLE_MAX_DIMENSION else 4
        samples = [random_mv(sig, rng) for _ in range(taps)]  # oldest first
        return next(_signal_windows(sig, samples, taps)), tuple(samples[::-1])

    def _row(self, sig, seed):
        # A run window after a whole training row on it: the filed record,
        # bound, step and convergence factor, as run_training calls them.
        rng = np.random.default_rng(seed)
        window, plain = self._run_window(sig, rng)
        state = make_state(sig, len(plain), rng, amp=rng.uniform(0.5, 1.5, sig.dim))
        d = random_mv(sig, rng)
        s = _fill_row(window, state._weights, TANH, state.amplitudes, d, True).s
        mu = 0.1 * mu_bound(window, s, TANH, state.amplitudes)
        _, record = shafa_step(state, window, d, mu, TANH)
        convergence_factor(window, record.e, record.s, TANH, state.amplitudes, mu)
        return window, plain, state, record, mu, rng

    def test_own_objects_read_the_record(self, sig):
        window, plain, state, record, mu, _ = self._row(sig, 60)
        assert net_input(state._weights, window) is record.s
        assert window_energy(window) is window_energy(window)
        report = convergence_factor(window, record.e, record.s, TANH, state.amplitudes, mu)
        assert report.f is convergence_factor(window, record.e, record.s, TANH, state.amplitudes, mu).f
        fresh = convergence_factor(plain, record.e, record.s, TANH, state.amplitudes, mu)
        assert _report_bits(report) == _report_bits(fresh)

    def test_window_owns_its_energy(self, sig):
        # x~.x is made once, with the window: window_energy returns the
        # window's own object before and after a record is filed on it, and
        # so does convergence_factor's report.
        rng = np.random.default_rng(67)
        window, plain = self._run_window(sig, rng)
        xx = window.xx
        assert window_energy(window) is xx and window_energy(window) is xx
        state = make_state(sig, len(plain), rng)
        row = _fill_row(window, state._weights, TANH, state.amplitudes, random_mv(sig, rng), True)
        assert window._row is row and window_energy(window) is xx
        report = convergence_factor(window, row.e, row.s, TANH, row.lambdas, 0.05)
        assert report.xx is xx and window_energy(window) is xx
        assert _bits(xx.coeffs) == _bits(window_energy(plain).coeffs)

    def test_other_objects_compute_afresh(self, sig):
        window, plain, state, record, mu, rng = self._row(sig, 61)
        same_values = Multivector(sig, record.s.coeffs)
        logistic = get_activation("logistic")
        cases = [
            (record.e, same_values, TANH),
            (record.e, random_mv(sig, rng), TANH),
            (record.e, record.s, logistic),
            (random_mv(sig, rng), record.s, TANH),
        ]
        for e, s, phi in cases:
            results = [
                _bits(mu_bound(win, s, phi, state.amplitudes))
                + _report_bits(convergence_factor(win, e, s, phi, state.amplitudes, mu))
                for win in (window, plain)
            ]
            assert results[0] == results[1]
        other_stack = make_state(sig, len(plain), rng)._weights
        assert _bits(net_input(other_stack, window).coeffs) == _bits(net_input(other_stack, plain).coeffs)

    def test_writable_amplitudes_are_never_served(self, sig):
        # A writable array, or a read-only view of one, may change between
        # calls, so every call must see its current values.
        rng = np.random.default_rng(62)
        _, plain = self._run_window(sig, rng)
        state = make_state(sig, len(plain), rng)
        e = random_mv(sig, rng)
        lambdas = rng.uniform(0.5, 1.5, sig.dim)
        view = lambdas.view()
        view.setflags(write=False)
        for given in (lambdas, view):
            window = next(_signal_windows(sig, list(plain[::-1]), len(plain)))
            s = _fill_row(window, state._weights, TANH, given, e, True).s
            for _ in range(2):
                results = [
                    _bits(mu_bound(win, s, TANH, given))
                    + _report_bits(convergence_factor(win, e, s, TANH, given, 0.05))
                    for win in (window, plain)
                ]
                assert results[0] == results[1]
                lambdas *= 1.5

    def test_record_misses_match_plain_tuple_calls_bit_for_bit(self, sig):
        # After a whole training row, the bound, both steps, M and x~.x on the
        # same run window with one argument other than the record's (the
        # cached |e|^2 and phi(s) must not be read then) give the bits of the
        # same calls on the plain tuple, which compute everything afresh.
        cases = (
            "own objects", "copy of e", "other e", "other amplitudes", "writable amplitudes",
            "amplitudes written again", "other activation", "plain tuple",
        )
        for case in cases:
            window, plain, state, record, mu, rng = self._row(sig, 63)
            e, lambdas, phi, win = record.e, state.amplitudes, TANH, window
            if case == "copy of e":
                e = Multivector(sig, record.e.coeffs)
            elif case == "other e":
                e = random_mv(sig, rng)
            elif case in ("other amplitudes", "writable amplitudes"):
                lambdas = rng.uniform(0.5, 1.5, sig.dim)
                if case == "other amplitudes":
                    lambdas.setflags(write=False)
            elif case == "amplitudes written again":
                # The record's own array cannot be set writable again, so its
                # owner cannot change it under the record.
                with pytest.raises(ValueError, match="WRITEABLE"):
                    state.amplitudes.setflags(write=True)
            elif case == "other activation":
                phi = get_activation("logistic")
            elif case == "plain tuple":
                win = plain
            # The steps keep the state's weight stack, so that their net input
            # is the record's, and take other amplitudes read-only, as a state does.
            amps = lambdas
            if lambdas is not state.amplitudes:
                amps = lambdas.copy()
                amps.setflags(write=False)
            step_state = FilterState._of_stack(state.sig, state._weights, amps, state.step)
            d = random_mv(sig, rng)
            results = []
            for w in (win, plain):
                bound = _bits(mu_bound(w, record.s, phi, lambdas))
                steps = [shafa_step(step_state, w, d, mu, phi), aashafa_step(step_state, w, d, mu, 0.01, phi)]
                report = _report_bits(convergence_factor(w, e, record.s, phi, lambdas, mu))
                results.append(bound + report + _bits(window_energy(w).coeffs) + [
                    _bits([x.coeffs for x in new.weights], new.amplitudes, r.s.coeffs, r.y.coeffs, r.e.coeffs, r.cost)
                    for new, r in steps
                ])
            assert results[0] == results[1], case

    def test_calls_with_other_objects_leave_the_record_unchanged(self, sig):
        # No call writes a record: after _fill_row, every per-step function
        # called with an object other than the record's own leaves each slot
        # of the filed record holding the very object it held.
        rng = np.random.default_rng(65)
        window, plain = self._run_window(sig, rng)
        state = make_state(sig, len(plain), rng, amp=rng.uniform(0.5, 1.5, sig.dim))
        d = random_mv(sig, rng)
        row = _fill_row(window, state._weights, TANH, state.amplitudes, d, True)
        before = {name: getattr(row, name) for name in _Row.__slots__}
        copy_e = Multivector(sig, row.e.coeffs)
        writable = rng.uniform(0.5, 1.5, sig.dim)
        other = np.frombuffer(writable.tobytes())
        logistic = get_activation("logistic")
        other_d = random_mv(sig, rng)
        for lambdas in (writable, other):
            mu_bound(window, row.s, TANH, lambdas)
            convergence_factor(window, row.e, row.s, TANH, lambdas, 0.05)
        mu_bound(window, row.s, logistic, state.amplitudes)
        convergence_factor(window, copy_e, row.s, TANH, state.amplitudes, 0.05)
        convergence_factor(window, row.e, row.s, logistic, state.amplitudes, 0.05)
        other_state = FilterState._of_stack(state.sig, state._weights, other, state.step)
        for st, target, phi in ((state, other_d, TANH), (state, d, logistic), (other_state, d, TANH)):
            shafa_step(st, window, target, 0.05, phi)
            aashafa_step(st, window, target, 0.05, 0.01, phi)
            cost_gradient(st, window, target, phi)
        forward(other_state, window, logistic)
        net_input(make_state(sig, len(plain), rng)._weights, window)
        window_energy(window)
        lambda_bound(window, row.s, logistic, 0.05, 0)
        assert window._row is row
        assert [name for name, value in before.items() if getattr(row, name) is not value] == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("step", ["shafa", "aashafa"])
class TestRunTargetFiniteness:
    """A filed record's finiteness check, made once per run, serves only the record's own target."""

    def _filed(self, sig, d, finite, seed):
        # A run window with its record filed for target d, as run_training
        # files it, or with no record at all when finite is None.
        rng = np.random.default_rng(seed)
        window = next(_signal_windows(sig, [random_mv(sig, rng) for _ in range(3)], 3))
        state = make_state(sig, 3, rng)
        if finite is not None:
            with np.errstate(all="ignore"):
                _fill_row(window, state._weights, TANH, state.amplitudes, d, finite)
        return window, state

    def _step(self, step, state, window, d):
        if step == "shafa":
            return shafa_step(state, window, d, 0.05, TANH)
        return aashafa_step(state, window, d, 0.05, 0.01, TANH)

    @staticmethod
    def _spoilt(d, bad):
        coeffs = d.coeffs.copy()
        coeffs[1] = bad
        return Multivector(d.sig, coeffs)

    @pytest.mark.parametrize("sig", [QUAT, Signature(4, 1), Signature(5, 4)], ids=str)
    def test_another_target_is_checked_afresh(self, step, bad, sig):
        d = random_mv(sig, np.random.default_rng(71))
        window, state = self._filed(sig, d, True, 72)
        self._step(step, state, window, d)
        with pytest.raises(NonFiniteSignalError):
            self._step(step, state, window, self._spoilt(d, bad))
        # The record still serves its own finite target afterwards.
        self._step(step, state, window, d)

    @pytest.mark.parametrize("finite", [False, None], ids=["run-checked", "unchecked"])
    def test_record_of_a_non_finite_target_rejects_it(self, step, bad, finite):
        # run-checked: the record filed for d says it is not finite.
        # unchecked: a run window with no record checks d itself.
        d = self._spoilt(random_mv(QUAT, np.random.default_rng(73)), bad)
        window, state = self._filed(QUAT, d, finite, 74)
        with pytest.raises(NonFiniteSignalError):
            self._step(step, state, window, d)

    def test_run_stops_at_a_non_finite_target(self, monkeypatch, step, bad):
        # run_training checks every target once per run; a non-finite target
        # still raises at its row, as a per-step check would.
        config = FilterConfig(sig=QUAT, taps=3, rho=0.01, adaptive_amplitude=step == "aashafa", seed=5)
        spec = SignalSpec(kind="ar4", length=30, seed=5)
        signal, hidden = experiments._signal_array(spec, QUAT)
        spoilt = signal.copy()
        spoilt[10, 2] = bad
        spoilt.setflags(write=False)
        monkeypatch.setattr(experiments, "_signal_array", lambda spec, sig: (spoilt, hidden))
        with pytest.raises(NonFiniteSignalError):
            experiments.run_training(config, spec, algo=step)


def test_square_sums_add_left_to_right_bit_for_bit():
    # Every sum of squares of a row (|e|^2, |P|^2, sum_l |F (x_l)~|^2 and both
    # parts of |x~.x|) adds its terms one at a time from the first, at every
    # length and whatever rows a stack holds, so its bits depend on no BLAS
    # kernel.
    rng = np.random.default_rng(64)
    for length in range(1, 257):
        rows = rng.standard_normal((4, length)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, length))
        assert _bits([_sq_sum(row) for row in rows]) == _bits([square_sum_reference(row) for row in rows]), length
        assert _bits(_sq_sum(rows)) == _bits(square_sum_reference(rows)), length
        if length > 1:
            mods, scalars, is_scalar = zip(*_xx_parts(rows))
            assert _bits(mods) == _bits([np.sqrt(square_sum_reference(row)) for row in rows]), length
            assert _bits(scalars) == _bits(rows[:, 0])
            rests = [np.sqrt(square_sum_reference(row[1:])) for row in rows]
            assert list(is_scalar) == [rest <= SCALAR_XX_RTOL * mod for rest, mod in zip(rests, mods)]
    assert _xx_parts(np.array([[2.0, 0.0], [2.0, 1e-11], [-0.0, 0.0]])) == [
        (2.0, 2.0, True), (np.sqrt(4.0 + 1e-22), 2.0, False), (0.0, -0.0, True),
    ]


#: Samples per block, small enough that a 40-sample signal spans several.
SMALL_BLOCK = 6


@pytest.mark.parametrize("taps", [1, 3, 4])
@pytest.mark.parametrize(
    "sig",
    [Signature(0, 1), QUAT, Signature(2, 1), Signature(4, 1), Signature(0, 6), Signature(5, 4), Signature(4, 4)],
    ids=str,
)
def test_windows_kept_across_blocks_match_fresh_windows(monkeypatch, sig, taps):
    # Every block of matrices is new and read-only, so windows kept from
    # several blocks at once hold the bits of each window built alone.  Above
    # n = 6 the windows come from the same loop, as one block without matrices.
    monkeypatch.setattr(filtering, "_BLOCK_ENTRIES", SMALL_BLOCK * sig.dim * sig.dim)
    rng = np.random.default_rng(66)
    samples = rng.standard_normal((40, sig.dim))
    windows = list(_signal_windows(sig, samples, taps))
    assert len(windows) == 40 - taps + 1
    dense = sig.n <= TABLE_MAX_DIMENSION
    for m, win in enumerate(windows, start=taps - 1):
        fresh = _window(tuple(Multivector(sig, samples[m - l]) for l in range(taps)))
        arrays = {name: (getattr(win, name), getattr(fresh, name)) for name in ("coeffs", "inv")}
        arrays["xx"] = win.xx.coeffs, fresh.xx.coeffs
        if dense:
            arrays.update((name, (getattr(win, name), getattr(fresh, name))) for name in ("right", "right_inv"))
        else:
            assert win.right is win.right_inv is fresh.right is fresh.right_inv is None
        for name, (got, want) in arrays.items():
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got.setflags(write=True)
            assert got.shape == want.shape and _bits(got) == _bits(want), (m, name)
        assert win.xx_parts == fresh.xx_parts and win.finite == fresh.finite
        if not dense:
            continue
        rights = [right_matrix(sig, samples[m - l]) for l in range(taps)]
        assert _bits(win.right) == _bits(np.hstack(rights))
        assert _bits(win.right_inv) == _bits(np.vstack([r.T for r in rights]))


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


@pytest.mark.parametrize("sig", [*all_signatures(6), Signature(5, 4)], ids=str)
def test_gradients_and_m_match_right_multiplication_matrices(sig):
    # s = sum_l R(x_l) w_l is linear in the real weight coefficients, with
    # R(x) right multiplication by x, so exactly dE/dw_l = -2 R(x_l)^T (e o P)
    # with P = lambda o phi'(s), dE/dlambda_A = -2 e_A phi(s_A), and
    # M = 2 mu sum_l |R(x_l)^T (e o P)|^2 / |e|^2.  R is built from blade
    # products alone.  The amplitude step adds rho e phi(s) with rho = 2^20,
    # so that subtracting the old amplitudes loses none of its bits.
    rng = np.random.default_rng(sig.p * 16 + sig.q)
    taps, mu, rho, rtol = 4, 0.01, 2.0**20, 1e-13
    for phi in (TANH, get_activation("logistic")):
        amp = rng.uniform(0.5, 1.5, sig.dim)
        state = make_state(sig, taps, rng, amp=amp, spread=0.5)
        window = make_window(sig, taps, rng)
        d = random_mv(sig, rng)
        rights = [right_matrix(sig, x) for x in window]
        s = np.zeros(sig.dim)
        for r, w in zip(rights, state.weights):
            s += r @ w.coeffs
        e = d.coeffs - amp * phi.func(s)
        directions = np.array([r.T @ (e * amp * phi.deriv(s)) for r in rights])

        grad = np.array([g.coeffs for g in cost_gradient(state, window, d, phi)])
        assert np.max(np.abs(grad + 2.0 * directions)) <= rtol * np.max(np.abs(2.0 * directions)), phi.name
        new, _ = aashafa_step(state, window, d, mu, rho, phi)
        amp_grad = -2.0 * (new.amplitudes - amp) / rho
        want = -2.0 * e * phi.func(s)
        assert np.max(np.abs(amp_grad - want)) <= rtol * np.max(np.abs(want)), phi.name
        m_factor = convergence_factor(window, Multivector(sig, e), Multivector(sig, s), phi, amp, mu).m_factor
        expect = 2.0 * mu * float(np.sum(directions * directions)) / float(np.sum(e * e))
        assert abs(m_factor - expect) <= rtol * expect, phi.name


@pytest.mark.parametrize("step", ["cost_gradient", "shafa", "aashafa"])
def test_step_rejects_empty_window(step):
    # The window is checked against the taps before any per-tap array is formed.
    rng = np.random.default_rng(39)
    state = make_state(QUAT, 2, rng)
    d = random_mv(QUAT, rng)
    calls = {
        "cost_gradient": lambda: cost_gradient(state, (), d, TANH),
        "shafa": lambda: shafa_step(state, (), d, 0.1, TANH),
        "aashafa": lambda: aashafa_step(state, (), d, 0.1, 0.05, TANH),
    }
    with pytest.raises(ValueError, match=r"^window length 0 != tap count 2$"):
        calls[step]()


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

    def test_window_energy_rejects_empty_window(self):
        with pytest.raises(ValueError, match="at least one sample"):
            window_energy(())

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            mu_bound((), Multivector.zero(QUAT), TANH, np.ones(4))


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

    def test_empty_window_rejected(self):
        rng = np.random.default_rng(27)
        e, s = random_mv(QUAT, rng), random_mv(QUAT, rng)
        with pytest.raises(ValueError, match="at least one sample"):
            convergence_factor((), e, s, TANH, np.ones(4), 0.1)

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

    @pytest.mark.parametrize(
        "sig,x,s",
        [
            (Signature(0, 1), [0.6, 0.8], [0.0, 30.0]),
            (QUAT, [0.6, 0.8, 0.0, 0.0], [0.0, 30.0, 30.0, 30.0]),
        ],
        ids=["Cl(0,1)", "Cl(0,2)"],
    )
    def test_bound_is_sharp_at_saturation(self, sig, x, s):
        # tanh' rounds to 0 at 30, so only the scalar part keeps a slope:
        # F = 1, |F x~|^2 = |x|^2 = 1 and mu_bound = 1 / (2 |x~.x| |P|^2) = 0.5,
        # where M = 2 mu |F x~|^2 / |e|^2 reaches 1.  M < 1 needs mu below it.
        ulp = np.spacing(1.0)
        window = (Multivector(sig, x),)
        e, s = Multivector.scalar(sig, 1.0), Multivector(sig, s)
        lambdas = np.ones(sig.dim)
        bound = mu_bound(window, s, TANH, lambdas)
        assert abs(bound - 0.5) <= 4 * ulp
        at_bound = convergence_factor(window, e, s, TANH, lambdas, bound).m_factor
        assert abs(at_bound - 1.0) <= 4 * ulp
        at_half = convergence_factor(window, e, s, TANH, lambdas, bound / 2).m_factor
        assert abs(at_half - at_bound / 2) <= 4 * np.spacing(at_half)

    def test_report_fields(self):
        rng = np.random.default_rng(30)
        state, window, d, e, s = self._setup(rng)
        report = convergence_factor(window, e, s, TANH, state.amplitudes, 0.02)
        assert report.xx_is_scalar  # quaternion window
        assert report.p_sq > 0
        assert report.mu_bound == mu_bound(window, s, TANH, state.amplitudes)
        expect_f = e.coeffs * state.amplitudes * (1 - np.tanh(s.coeffs) ** 2)
        assert np.allclose(report.f.coeffs, expect_f, rtol=1e-14)

    @pytest.mark.parametrize("algo", ["shafa", "aashafa"])
    @pytest.mark.parametrize("sig", [QUAT, Signature(2, 1)], ids=str)
    def test_m_factor_matches_applied_update(self, sig, algo):
        # M = 2 sum_l |F (x_l)~|^2 mu / |e|^2 and w_l' - w_l = mu F (x_l)~
        rng = np.random.default_rng(31)
        mu = 0.03
        for _ in range(5):
            state = make_state(sig, 3, rng, amp=rng.uniform(0.5, 2.0, sig.dim))
            window = make_window(sig, 3, rng)
            d = random_mv(sig, rng)
            if algo == "shafa":
                new_state, record = shafa_step(state, window, d, mu, TANH)
            else:
                new_state, record = aashafa_step(state, window, d, mu, 0.1, TANH)
            report = convergence_factor(window, record.e, record.s, TANH, state.amplitudes, mu)
            deltas = [w_new.coeffs - w.coeffs for w_new, w in zip(new_state.weights, state.weights)]
            applied = sum(float(np.dot(dw, dw)) for dw in deltas)
            expect = 2.0 * applied / (mu * float(np.dot(record.e.coeffs, record.e.coeffs)))
            assert np.isclose(report.m_factor, expect, rtol=1e-12, atol=0.0)

    def test_nonscalar_window_energy_flagged(self):
        sig = Signature(1, 0)
        window = (Multivector(sig, [1.0, 1.0]),)  # x~ x = 2(1 + e1)
        s = Multivector.zero(sig)
        e = Multivector.scalar(sig, 0.5)
        report = convergence_factor(window, e, s, TANH, np.ones(2), 0.01)
        assert not report.xx_is_scalar
        assert np.array_equal(report.xx.coeffs, [2.0, 2.0])


def _bound_case(sig, mode, rng, taps=3):
    # Window, prior error, net input and amplitudes for one input mode.
    # tanh' rounds to 0 at s = 30, so a saturated component has P_A = 0.
    if mode == "single-blade":
        window = tuple(
            Multivector.basis_blade(sig, int(rng.integers(sig.dim)), rng.uniform(-2.0, 2.0))
            for _ in range(taps)
        )
    else:
        window = make_window(sig, taps, rng)
    e = random_mv(sig, rng)
    s = rng.uniform(-2.0, 2.0, sig.dim)
    if mode.startswith("saturated"):
        keep = int(rng.integers(sig.dim))
        s = np.where(np.arange(sig.dim) == keep, s, 30.0)
        if mode == "saturated-blade-error":
            e = Multivector.basis_blade(sig, keep, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    return window, e, Multivector(sig, s), rng.uniform(0.5, 2.0, sig.dim)


@pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
def test_step_bound_holds_on_every_signature(sig):
    # The proof in mu_bound's docstring: sum_l |F x~_l|^2 <= <x~.x>_0 (sum_A |F_A|)^2,
    # so M stays at or below 1 at mu = mu_bound, division algebra or not.
    eps = np.spacing(1.0)
    rng = np.random.default_rng(sig.p * 8 + sig.q)
    for mode in ("random", "single-blade", "saturated", "saturated-blade-error"):
        for _ in range(25):
            window, e, s, lambdas = _bound_case(sig, mode, rng)
            f, rows = _directions(e, s, lambdas, TANH, window)
            total = float(np.sum(rows * rows))
            energy = float(window_energy(window).coeffs[0])
            assert total <= energy * float(np.sum(np.abs(f.coeffs))) ** 2 * (1 + 64 * eps), mode
            bound = mu_bound(window, s, TANH, lambdas)
            if bound != MU_BOUND_CAP:
                m_factor = convergence_factor(window, e, s, TANH, lambdas, bound).m_factor
                assert m_factor <= 1 + 8 * eps, (mode, m_factor)


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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            lambda_bound((), Multivector.zero(QUAT), TANH, 0.1, 0)

    def test_rejects_out_of_range_blade(self):
        # A negative mask would wrap around to the last blade instead of failing.
        rng = np.random.default_rng(42)
        window = make_window(QUAT, 2, rng)
        s = random_mv(QUAT, rng)
        for bits in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                lambda_bound(window, s, TANH, 0.1, bits)

    @pytest.mark.parametrize("bits", [True, False, 1.5, 2.0, "1", None], ids=repr)
    def test_rejects_non_integer_blade(self, bits):
        # A float mask raised IndexError and a bool one TypeError.
        rng = np.random.default_rng(42)
        window = make_window(QUAT, 2, rng)
        s = random_mv(QUAT, rng)
        with pytest.raises(ValueError, match="blade masks must be integers"):
            lambda_bound(window, s, TANH, 0.1, bits)

    def test_numpy_integer_blade_accepted(self):
        rng = np.random.default_rng(42)
        window = make_window(QUAT, 2, rng)
        s = random_mv(QUAT, rng)
        for bits in range(QUAT.dim):
            assert lambda_bound(window, s, TANH, 0.1, np.int64(bits)) == lambda_bound(window, s, TANH, 0.1, bits)

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

    def test_rejects_empty_amplitude_fields(self):
        rng = np.random.default_rng(35)
        lines = state_to_text(make_state(QUAT, 2, rng), "tanh").splitlines()
        for amps in ("[1.0, , 1.0, 1.0]", "[1.0,, 1.0, 1.0, 1.0]", "[1.0, 1.0, 1.0, 1.0,]"):
            with pytest.raises(ValueError, match="empty field"):
                state_from_text("\n".join(lines[:-1] + [amps]))

    def test_rejects_negative_step(self):
        rng = np.random.default_rng(37)
        state = make_state(QUAT, 2, rng)
        with pytest.raises(ValueError, match="step"):
            FilterState(weights=state.weights, amplitudes=state.amplitudes, step=-1)
        lines = state_to_text(state, "tanh").splitlines()
        with pytest.raises(ValueError, match="step"):
            state_from_text("\n".join(["0,2,2,tanh,-5"] + lines[1:]))

    @pytest.mark.parametrize("step", [1.5, 2.0, True, "3"], ids=repr)
    def test_rejects_non_integer_step(self, step):
        # A float or bool counter would be written as '1.5' or 'True', which
        # state_from_text cannot read back.
        rng = np.random.default_rng(38)
        state = make_state(QUAT, 2, rng)
        with pytest.raises(ValueError, match="step"):
            FilterState(weights=state.weights, amplitudes=state.amplitudes, step=step)

    def test_numpy_integer_step_stored_as_int(self):
        rng = np.random.default_rng(39)
        state = make_state(QUAT, 2, rng)
        state = FilterState(weights=state.weights, amplitudes=state.amplitudes, step=np.int64(7))
        assert type(state.step) is int
        again, _ = state_from_text(state_to_text(state, "tanh"))
        assert again.step == 7

    def test_rejects_no_weights(self):
        with pytest.raises(ValueError, match=r"^need at least one weight$"):
            FilterState(weights=(), amplitudes=np.ones(4))

    @pytest.mark.parametrize("shape", [(), (3,), (5,), (1, 4), (4, 1)], ids=str)
    def test_rejects_amplitudes_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=rf"^need 4 amplitudes for Cl\(0,2\), got {re.escape(str(shape))}$"):
            FilterState(weights=(Multivector.zero(QUAT),), amplitudes=np.ones(shape))

    def test_rejects_amplitude_line_without_brackets(self):
        rng = np.random.default_rng(41)
        lines = state_to_text(make_state(QUAT, 2, rng), "tanh").splitlines()
        for amps in ("1.0, 1.0, 1.0, 1.0", "[1.0, 1.0, 1.0, 1.0", "1.0, 1.0, 1.0, 1.0]"):
            with pytest.raises(ValueError, match="not a bracketed coefficient list"):
                state_from_text("\n".join(lines[:-1] + [amps]))

    def test_rejects_weight_lines_that_disagree_with_the_header(self):
        rng = np.random.default_rng(42)
        lines = state_to_text(make_state(QUAT, 2, rng), "tanh").splitlines()
        for kept in (lines[:2] + lines[3:], lines[:3] + lines[2:]):
            with pytest.raises(ValueError, match=r"^snapshot needs 2 weight lines plus amplitudes, got \d$"):
                state_from_text("\n".join(kept))
        foreign = lines[2].replace("0,2:", "2,0:", 1)
        with pytest.raises(ValueError, match=r"^weight signature Cl\(2,0\) != header signature Cl\(0,2\)$"):
            state_from_text("\n".join(lines[:2] + [foreign] + lines[3:]))

    def test_rejects_mixed_signature_weights(self):
        # Same dimension, other metric: only the signature check can tell them apart.
        rng = np.random.default_rng(40)
        weights = (random_mv(QUAT, rng), random_mv(Signature(2, 0), rng))
        with pytest.raises(SignatureMismatchError, match="signature"):
            FilterState(weights=weights, amplitudes=np.ones(4))

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


class TestNanStepSizes:
    # NaN compares false with everything, so `mu <= 0` alone let a NaN step size through.
    NAN = float("nan")

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.state = make_state(QUAT, 2, rng)
        self.window = make_window(QUAT, 2, rng)
        self.d = random_mv(QUAT, rng)

    def test_shafa_rejects_nan_mu(self):
        with pytest.raises(ValueError, match="mu"):
            shafa_step(self.state, self.window, self.d, self.NAN, TANH)

    def test_sqafa_rejects_nan_mu(self):
        with pytest.raises(ValueError, match="mu"):
            sqafa_step(self.state, self.window, self.d, self.NAN, TANH)

    def test_aashafa_rejects_nan_mu(self):
        with pytest.raises(ValueError, match="mu"):
            aashafa_step(self.state, self.window, self.d, self.NAN, 0.01, TANH)

    def test_aashafa_rejects_nan_rho(self):
        with pytest.raises(ValueError, match="rho"):
            aashafa_step(self.state, self.window, self.d, 0.1, self.NAN, TANH)

    def test_lambda_bound_rejects_nan_mu(self):
        s = net_input(self.state.weights, self.window)
        with pytest.raises(ValueError, match="mu"):
            lambda_bound(self.window, s, TANH, self.NAN, 0)

    def test_mu_bound_caps_nan_net_input(self):
        s = Multivector(QUAT, [self.NAN, 0.0, 0.0, 0.0])
        assert mu_bound(self.window, s, TANH, np.ones(4)) == MU_BOUND_CAP

    def test_lambda_bound_caps_nan_net_input(self):
        s = Multivector(QUAT, [self.NAN, 0.0, 0.0, 0.0])
        assert lambda_bound(self.window, s, TANH, 0.1, 0) == LAMBDA_BOUND_CAP

    def test_auto_step_from_nan_weights_reports_nan_cost(self):
        # The auto step size of a state with NaN weights is a capped fraction,
        # so the step runs and reports a non-finite cost (a divergence) rather
        # than rejecting its step size.  FilterState(...) rejects NaN weights,
        # so the state is built unchecked, as a diverging step hands it on.
        state = FilterState._of_stack(QUAT, np.full((2, 4), self.NAN), self.state.amplitudes, 0)
        s = net_input(state.weights, self.window)
        mu = 0.1 * mu_bound(self.window, s, TANH, state.amplitudes)
        assert mu == 0.1 * MU_BOUND_CAP
        _, record = shafa_step(state, self.window, self.d, mu, TANH)
        assert np.isnan(record.cost)
        _, record = aashafa_step(state, self.window, self.d, mu, 0.01, TANH)
        assert np.isnan(record.cost)


class TestStepSizeAndAmplitudeChecks:
    # An infinite step size gave +-inf weights, -inf amplitudes, a lambda
    # bound of 0.0 and M = inf; a NaN or negative one gave M = nan or M < 0;
    # amplitudes of shape (1,) or () were broadcast over every blade.
    INF = float("inf")

    def setup_method(self):
        rng = np.random.default_rng(66)
        self.state = make_state(QUAT, 3, rng)
        self.window = make_window(QUAT, 3, rng)
        self.d = random_mv(QUAT, rng)
        self.y, self.s = forward(self.state, self.window, TANH)

    @pytest.mark.parametrize("mu", [float("inf"), -float("inf"), -1.0, 0.0], ids=repr)
    def test_steps_and_lambda_bound_need_finite_positive_mu(self, mu):
        with pytest.raises(ValueError, match="mu"):
            shafa_step(self.state, self.window, self.d, mu, TANH)
        with pytest.raises(ValueError, match="mu"):
            aashafa_step(self.state, self.window, self.d, mu, 0.01, TANH)
        with pytest.raises(ValueError, match="mu"):
            lambda_bound(self.window, self.s, TANH, mu, 0)

    @pytest.mark.parametrize("rho", [float("inf"), -1.0], ids=repr)
    def test_aashafa_needs_finite_non_negative_rho(self, rho):
        with pytest.raises(ValueError, match="rho"):
            aashafa_step(self.state, self.window, self.d, 0.1, rho, TANH)

    @pytest.mark.parametrize("mu", [float("inf"), float("nan"), -1.0], ids=repr)
    def test_convergence_factor_needs_finite_non_negative_mu(self, mu):
        with pytest.raises(ValueError, match="mu"):
            convergence_factor(self.window, self.d - self.y, self.s, TANH, self.state.amplitudes, mu)

    @pytest.mark.parametrize(
        "lambdas", [np.array([2.0]), 2.0, np.ones(8), np.ones((1, 4))], ids=["(1,)", "()", "(8,)", "(1,4)"]
    )
    def test_bounds_reject_misshapen_amplitudes(self, lambdas):
        with pytest.raises(ValueError, match="amplitudes"):
            mu_bound(self.window, self.s, TANH, lambdas)
        with pytest.raises(ValueError, match="amplitudes"):
            convergence_factor(self.window, self.d - self.y, self.s, TANH, lambdas, 0.1)

    def test_nan_amplitudes_are_accepted(self):
        # A diverging AASHAFA run reaches NaN amplitudes; mu_bound caps them.
        lambdas = np.full(4, np.nan)
        assert mu_bound(self.window, self.s, TANH, lambdas) == MU_BOUND_CAP
        report = convergence_factor(self.window, self.d - self.y, self.s, TANH, lambdas, 0.1)
        assert np.isnan(report.m_factor) and report.mu_bound == MU_BOUND_CAP
