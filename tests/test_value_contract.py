"""Multivector as an immutable value, and configs that must agree with their run."""

import numpy as np
import pytest

import hyperfir
from hyperfir import (
    TANH,
    FilterConfig,
    Multivector,
    Signature,
    SignalSpec,
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

from _util import random_mv

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
    for m in (*record.delta_w, record.s, record.y, record.e, *new_state.weights, *state.weights):
        assert not m.coeffs.flags.writeable


def test_operation_aliases_and_bits_to_lex_are_gone():
    for name in ("geometric_product", "principal_involution", "reverse", "grade_select",
                 "scalar_product", "component", "modulus", "signed_magnitude_sq"):
        assert not hasattr(hyperfir, name), name
        assert not hasattr(hyperfir.algebra, name), name
    assert not hasattr(product_table(QUAT), "bits_to_lex")


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
