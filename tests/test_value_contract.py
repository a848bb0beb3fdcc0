"""Multivector as an immutable value, and configs that must agree with their run."""

import dataclasses
import inspect

import numpy as np
import pytest

import hyperfir
import hyperfir.geometry
from hyperfir import (
    TANH,
    FilterConfig,
    Multivector,
    Signature,
    SignalSpec,
    StepRecord,
    aashafa_step,
    generate_signal,
    init_state,
    lambda_bound,
    net_input,
    outer_product,
    parse_multivector,
    product_table,
    run_training,
    shafa_step,
    split_apply_amplitude,
    window_energy,
)

from _util import random_mv, window_energy_reference

QUAT = Signature(0, 2)


class TestConstructorCopies:
    def test_caller_array_mutation_does_not_leak(self):
        a = np.array([1.0, 2.0])
        m = Multivector(Signature(0, 1), a)
        a[0] = 99.0
        assert m.coeffs.tolist() == [1.0, 2.0]
        assert a.flags.writeable

    def test_caller_2d_array_mutation_does_not_leak(self):
        a = np.arange(4.0).reshape(2, 2)
        m = Multivector(QUAT, a)
        a[:] = -1.0
        assert m.coeffs.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("coeffs", [[1, 2, 3, 4], np.array([1, 2, 3, 4]), (1.0, 2.0, 3.0, 4.0)])
    def test_lists_and_int_arrays_convert(self, coeffs):
        m = Multivector(QUAT, coeffs)
        assert m.coeffs.dtype == np.float64
        assert m.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_copy_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Multivector(QUAT, np.zeros(4), copy=False)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Multivector(QUAT, np.zeros(3))


class TestImmutable:
    def test_coefficients_read_only(self):
        m = Multivector(QUAT, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            m.coeffs[0] = 1.0
        assert m.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_attributes_cannot_be_rebound(self):
        m = Multivector(QUAT, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(AttributeError):
            m.sig = Signature(2, 0)
        with pytest.raises(AttributeError):
            m.coeffs = np.zeros(4)


def _results(sig, rng):
    a, b = random_mv(sig, rng), random_mv(sig, rng)
    yield "product", a * b
    yield "sum", a + b
    yield "difference", a - b
    yield "negation", -a
    yield "scaled", 2.0 * a
    yield "divided", a / 2.0
    yield "involution", a.involution()
    yield "reverse", a.reverse()
    yield "grade", a.grade(1)
    yield "outer", outer_product(a, b)
    yield "zero", Multivector.zero(sig)
    yield "scalar", Multivector.scalar(sig, 3.0)
    yield "blade", Multivector.basis_blade(sig, 1)
    yield "amplitude", split_apply_amplitude(np.full(sig.dim, 2.0), TANH, a)
    yield "net_input", net_input((a, b), (b, a))
    yield "window_energy", window_energy((a, b))


@pytest.mark.parametrize("sig", [QUAT, Signature(2, 1), Signature(5, 4)], ids=str)
def test_operation_results_are_read_only(sig):
    for name, m in _results(sig, np.random.default_rng(3)):
        assert not m.coeffs.flags.writeable, name
        assert m.coeffs.shape == (sig.dim,), name


MEMO_SIGS = [QUAT, Signature(2, 1), Signature(5, 4)]  # Cl(5,4) takes the split product path


@pytest.mark.parametrize("sig", MEMO_SIGS, ids=str)
class TestPerSampleCache:
    def test_involution_computed_once(self, sig):
        x = random_mv(sig, np.random.default_rng(5))
        assert x.involution() is x.involution()
        assert x._energy() is x._energy()

    def test_cached_values_read_only(self, sig):
        x = random_mv(sig, np.random.default_rng(6))
        x._energy()  # fills both slots
        assert not x.involution().coeffs.flags.writeable
        assert not x._energy().flags.writeable
        with pytest.raises(ValueError):
            x._energy()[0] = 0.0

    def test_cache_slots_cannot_be_rebound(self, sig):
        x = random_mv(sig, np.random.default_rng(7))
        x._energy()  # fills both slots
        with pytest.raises(AttributeError):
            x._inv = Multivector.zero(sig)
        with pytest.raises(AttributeError):
            x._xx = np.zeros(sig.dim)

    def test_copy_does_not_share_cache(self, sig):
        x = random_mv(sig, np.random.default_rng(8))
        inv, xx = x.involution(), x._energy()
        c = Multivector(x.sig, x.coeffs)
        assert c.involution() is not inv and c.involution() == inv
        assert c._energy() is not xx and np.array_equal(c._energy(), xx)

    def test_window_energy_matches_uncached_sum(self, sig):
        rng = np.random.default_rng(9)
        window = tuple(random_mv(sig, rng) for _ in range(3))
        expect = window_energy_reference(window)
        assert np.array_equal(window_energy(window).coeffs, expect)  # fills the cache
        assert np.array_equal(window_energy(window).coeffs, expect)  # reads it


@pytest.mark.parametrize("sig", [QUAT, Signature(2, 1), Signature(0, 6)], ids=str)
class TestLeftMatrixCache:
    def test_matrix_computed_once(self, sig):
        rng = np.random.default_rng(10)
        w, b = random_mv(sig, rng), random_mv(sig, rng)
        w._left_mul(b.coeffs)
        mat = w._left
        w._left_mul(np.stack([b.coeffs, b.coeffs]))
        assert w._left is mat
        assert np.array_equal(mat, product_table(sig).left_matrix(w.coeffs))

    def test_matrix_read_only_and_not_rebindable(self, sig):
        rng = np.random.default_rng(11)
        w, b = random_mv(sig, rng), random_mv(sig, rng)
        w._left_mul(b.coeffs)
        assert not w._left.flags.writeable
        with pytest.raises(ValueError):
            w._left[0, 0] = 0.0
        with pytest.raises(AttributeError):
            w._left = np.zeros((sig.dim, sig.dim))

    def test_copy_does_not_share_matrix(self, sig):
        rng = np.random.default_rng(12)
        w, b = random_mv(sig, rng), random_mv(sig, rng)
        w._left_mul(b.coeffs)
        c = Multivector(w.sig, w.coeffs)
        assert c._left is None
        c._left_mul(b.coeffs)
        assert c._left is not w._left and np.array_equal(c._left, w._left)

    def test_product_and_window_energy_leave_slot_empty(self, sig):
        rng = np.random.default_rng(13)
        window = tuple(random_mv(sig, rng) for _ in range(3))
        w = random_mv(sig, rng)
        _ = w * window[0], window[0] * w
        window_energy(window)
        assert w._left is None
        assert all(x._left is None and x.involution()._left is None for x in window)

    def test_net_input_fills_weights_not_samples(self, sig):
        rng = np.random.default_rng(14)
        weights = tuple(random_mv(sig, rng) for _ in range(2))
        window = tuple(random_mv(sig, rng) for _ in range(2))
        net_input(weights, window)
        assert all(w._left is not None for w in weights)
        assert all(x._left is None for x in window)


def test_left_matrix_slot_stays_empty_beyond_dense_tables():
    sig = Signature(5, 4)  # split product path: a left matrix would take 2 MB
    rng = np.random.default_rng(15)
    w, b = random_mv(sig, rng), random_mv(sig, rng)
    table = product_table(sig)
    assert np.array_equal(w._left_mul(b.coeffs), table.multiply(w.coeffs, b.coeffs))
    stacked = w._left_mul(np.stack([b.coeffs, -b.coeffs]))
    assert np.array_equal(stacked, [table.multiply(w.coeffs, b.coeffs), table.multiply(w.coeffs, -b.coeffs)])
    net_input((w,), (b,))
    assert w._left is None


def test_parsed_literal_is_read_only():
    assert not parse_multivector("0,2:[1, 2, 3, 4]").coeffs.flags.writeable


@pytest.mark.parametrize("step", ["shafa", "aashafa"])
def test_training_step_outputs_are_read_only(step):
    rng = np.random.default_rng(4)
    state = init_state(FilterConfig(sig=QUAT, taps=2, seed=4))
    window = (random_mv(QUAT, rng), random_mv(QUAT, rng))
    d = random_mv(QUAT, rng)
    if step == "shafa":
        new_state, record = shafa_step(state, window, d, 0.1, TANH)
    else:
        new_state, record = aashafa_step(state, window, d, 0.1, 0.05, TANH)
    for m in (record.s, record.y, record.e, *new_state.weights, *state.weights):
        assert not m.coeffs.flags.writeable


def test_operation_aliases_and_bits_to_lex_are_gone():
    for name in ("geometric_product", "principal_involution", "reverse", "grade_select",
                 "scalar_product", "component", "modulus", "signed_magnitude_sq"):
        assert not hasattr(hyperfir, name), name
        assert not hasattr(hyperfir.algebra, name), name
    assert not hasattr(product_table(QUAT), "bits_to_lex")
    for name in ("sqafa_step", "finite_difference_gradient", "WrongSignatureError"):
        assert not hasattr(hyperfir, name), name
        assert not hasattr(hyperfir.filtering, name), name
    assert not hasattr(product_table(QUAT), "structure_scalar")
    assert not hasattr(product_table(QUAT), "multiply_masked")
    assert not hasattr(Signature, "metric_array")
    assert not hasattr(Multivector, "copy")
    assert "delta_w" not in {f.name for f in dataclasses.fields(StepRecord)}
    assert not hasattr(hyperfir.geometry, "homogeneous_grade")
    for member in (hyperfir.opns_member, hyperfir.ipns_member):
        assert "rtol" not in inspect.signature(member).parameters, member.__name__


class TestConfigAgreesWithAlgo:
    @pytest.mark.parametrize("adaptive,algo", [(True, "shafa"), (False, "aashafa")])
    def test_disagreement_rejected(self, adaptive, algo):
        config = FilterConfig(sig=QUAT, taps=2, adaptive_amplitude=adaptive, seed=0)
        with pytest.raises(ValueError, match="adaptive_amplitude"):
            run_training(config, SignalSpec(kind="ar4", length=20, seed=0), algo=algo)

    @pytest.mark.parametrize("adaptive,algo", [(False, "shafa"), (True, "aashafa")])
    def test_agreement_runs(self, adaptive, algo):
        config = FilterConfig(sig=QUAT, taps=2, adaptive_amplitude=adaptive, seed=0)
        report = run_training(config, SignalSpec(kind="ar4", length=20, seed=0), algo=algo)
        assert len(report.rows) == 18


def test_run_lambda_ratio_matches_lambda_bound():
    # The run's max lambda ratio is max over steps and blades of
    # (lambda_A / lambda_bound_A)^2, replayed here step by step.
    mu, rho = 0.05, 0.05
    config = FilterConfig(sig=QUAT, taps=2, mu=mu, rho=rho, adaptive_amplitude=True, seed=3)
    spec = SignalSpec(kind="ar4", length=30, scale=0.1, seed=3)
    report = run_training(config, spec, algo="aashafa")
    samples, _ = generate_signal(spec, QUAT)
    state = init_state(config)
    worst = 0.0
    for m in range(1, len(samples) - 1):
        window = (samples[m], samples[m - 1])
        lambdas = state.amplitudes
        state, record = aashafa_step(state, window, samples[m + 1], mu, rho, TANH)
        for a in range(QUAT.dim):
            worst = max(worst, (lambdas[a] / lambda_bound(window, record.s, TANH, mu, a)) ** 2)
    assert worst > 0.0
    assert np.isclose(report.summary.max_lambda_ratio, worst, rtol=1e-12)
