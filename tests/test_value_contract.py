"""Multivector as an immutable value, and configs that must agree with their run."""

import dataclasses
import inspect

import numpy as np
import pytest

import hyperfir
import hyperfir.geometry
from hyperfir import (
    TANH,
    ConvergenceReport,
    FilterConfig,
    FilterState,
    Multivector,
    Signature,
    SignalSpec,
    StepRecord,
    aashafa_step,
    convergence_factor,
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
    state_from_text,
    state_to_text,
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

    @pytest.mark.parametrize(
        "make, changes",
        [
            (lambda: FilterConfig(sig=QUAT, taps=2), {"mu_auto_frac": 5.0, "activation": "tanh", "taps": 0}),
            (lambda: SignalSpec(kind="teacher", length=20), {"length": 1, "noise_std": -1.0}),
        ],
        ids=["FilterConfig", "SignalSpec"],
    )
    def test_configs_cannot_be_changed(self, make, changes):
        # Every field is checked when a config is built; one set afterwards
        # would skip those checks, so none can be.
        config = make()
        for field, value in changes.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field, value)
        assert config == make()


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
    """Values derived per sample, the involution and x~.x: read-only, unshared, with no slot to rebind.

    No value keeps a memo of them any more; the class keeps its name so that
    its test ids stay stable.
    """

    def test_cached_values_read_only(self, sig):
        x = random_mv(sig, np.random.default_rng(6))
        assert not x.involution().coeffs.flags.writeable
        with pytest.raises(ValueError):
            x.involution().coeffs[0] = 0.0

    def test_cache_slots_cannot_be_rebound(self, sig):
        x = random_mv(sig, np.random.default_rng(7))
        with pytest.raises(AttributeError):
            x._inv = Multivector.zero(sig)

    def test_copy_does_not_share_cache(self, sig):
        x = random_mv(sig, np.random.default_rng(8))
        inv = x.involution()
        c = Multivector(x.sig, x.coeffs)
        assert c.involution() is not inv and c.involution() == inv

    def test_window_energy_matches_uncached_sum(self, sig):
        rng = np.random.default_rng(9)
        window = tuple(random_mv(sig, rng) for _ in range(3))
        expect = window_energy_reference(window)
        assert np.array_equal(window_energy(window).coeffs, expect)
        assert np.array_equal(window_energy(window).coeffs, expect)


def test_values_and_weight_stacks_keep_no_memo():
    # The row record is the one memo of a training row; values, weight stacks and windows keep none.
    assert Multivector.__slots__ == ("sig", "coeffs")
    assert not hasattr(Multivector, "_left_mul")
    assert not any(isinstance(v, property) for v in vars(hyperfir.filtering._Window).values())


@pytest.mark.parametrize("sig", [QUAT, Signature(4, 1), Signature(5, 4)], ids=str)
class TestFastConstructors:
    """Each private fast constructor makes the value of its public one, and as immutable."""

    def test_wrapped_multivector(self, sig):
        coeffs = np.random.default_rng(80).standard_normal(sig.dim)
        fast, public = Multivector._own(sig, coeffs.copy()), Multivector(sig, coeffs)
        assert type(fast) is Multivector and fast == public and repr(fast) == repr(public)
        for m in (fast, public):
            assert not m.coeffs.flags.writeable
            with pytest.raises(ValueError):
                m.coeffs[0] = 1.0
            with pytest.raises(AttributeError):
                m.coeffs = coeffs
            with pytest.raises(AttributeError):
                m.sig = QUAT

    def test_weight_stack_of_a_step(self, sig):
        # A step builds the next state's weight array from its own array;
        # FilterState builds one from weight values.
        rng = np.random.default_rng(81)
        state = FilterState(weights=tuple(random_mv(sig, rng) for _ in range(2)), amplitudes=np.ones(sig.dim))
        window = tuple(random_mv(sig, rng) for _ in range(2))
        fast = shafa_step(state, window, random_mv(sig, rng), 0.05, TANH)[0]
        weights = tuple(Multivector(sig, c) for c in fast._weights)
        public = FilterState(weights=weights, amplitudes=np.ones(sig.dim))
        for st in (fast, public):
            stack = st._weights
            assert st.sig == sig and stack.shape == (2, sig.dim)
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0] = 1.0
        assert np.array_equal(fast._weights, public._weights)

    def test_step_records_and_reports(self, sig):
        rng = np.random.default_rng(82)
        amplitudes = rng.uniform(0.5, 1.5, sig.dim)
        state = FilterState(weights=tuple(random_mv(sig, rng) for _ in range(2)), amplitudes=amplitudes)
        window = tuple(random_mv(sig, rng) for _ in range(2))
        d = random_mv(sig, rng)
        _, record = aashafa_step(state, window, d, 0.05, 0.01, TANH)
        report = convergence_factor(window, record.e, record.s, TANH, state.amplitudes, 0.05)
        for fast, cls, field in ((record, StepRecord, "cost"), (report, ConvergenceReport, "mu_bound")):
            names = [f.name for f in dataclasses.fields(cls)]
            public = cls(**{name: getattr(fast, name) for name in names})
            assert type(fast) is cls and fast == public and public == fast and repr(fast) == repr(public)
            assert vars(fast) == vars(public) and list(vars(fast)) == names
            for obj in (fast, public):
                for name in names:
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(obj, name, getattr(obj, name))
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        delattr(obj, name)
            moved = dataclasses.replace(fast, **{field: 2.0})
            assert type(moved) is cls and getattr(moved, field) == 2.0
            assert moved == dataclasses.replace(public, **{field: 2.0}) and dataclasses.replace(fast) == public


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
    assert not new_state.amplitudes.flags.writeable


def _stepped_state(sig, step, rng):
    # A state made by a training step from a seeded start state.
    state = init_state(FilterConfig(sig=sig, taps=3, seed=5))
    window = tuple(random_mv(sig, rng) for _ in range(3))
    d = random_mv(sig, rng)
    if step == "shafa":
        return shafa_step(state, window, d, 0.05, TANH)[0]
    return aashafa_step(state, window, d, 0.05, 0.1, TANH)[0]


@pytest.mark.parametrize("step", ["shafa", "aashafa"])
@pytest.mark.parametrize("sig", [QUAT, Signature(2, 1), Signature(0, 6), Signature(5, 4)], ids=str)
class TestStepStateHandOff:
    """A training step hands on its weight stack; the weights tuple is built from it when read."""

    def test_equals_state_built_from_its_weights(self, sig, step):
        new = _stepped_state(sig, step, np.random.default_rng(16))
        assert "weights" not in vars(new)
        rebuilt = FilterState(weights=new.weights, amplitudes=new.amplitudes, step=new.step)
        assert new == rebuilt and rebuilt == new
        assert repr(new) == repr(rebuilt)
        assert state_to_text(new, "tanh") == state_to_text(rebuilt, "tanh")
        assert dataclasses.replace(new) == rebuilt
        moved = dataclasses.replace(new, step=9)
        assert moved.step == 9 and moved.weights == new.weights and moved.amplitudes is new.amplitudes

    def test_weights_built_once_from_the_stack(self, sig, step):
        new = _stepped_state(sig, step, np.random.default_rng(17))
        assert new.sig == sig and new.taps == 3
        weights = new.weights
        assert new.weights is weights
        stack = new._weights
        assert np.array_equal([w.coeffs for w in weights], stack)
        assert all(np.shares_memory(w.coeffs, stack) and not w.coeffs.flags.writeable for w in weights)
        assert all(w.sig == sig for w in weights)

    def test_other_missing_attributes_still_raise(self, sig, step):
        new = _stepped_state(sig, step, np.random.default_rng(18))
        with pytest.raises(AttributeError, match="delta_w"):
            new.delta_w
        assert not hasattr(new, "_left")


class TestFilterStateValue:
    """A FilterState owns read-only amplitudes, holds finite numbers only and compares by value."""

    def _weights(self, seed=20):
        rng = np.random.default_rng(seed)
        return (random_mv(QUAT, rng), random_mv(QUAT, rng))

    def test_caller_amplitudes_do_not_leak(self):
        given = np.ones(4)
        view = given.view()
        view.setflags(write=False)  # read-only, but given still writes its data
        states = [FilterState(weights=self._weights(), amplitudes=a) for a in (given, view, [1, 1, 1, 1])]
        given[0] = 5.0
        for state in states:
            assert np.array_equal(state.amplitudes, np.ones(4))
            assert state.amplitudes.dtype == float and not state.amplitudes.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                state.amplitudes[1] = 2.0
            assert FilterState(weights=state.weights, amplitudes=state.amplitudes).amplitudes is state.amplitudes

    def test_caller_weight_list_does_not_leak(self):
        # The taps, the equality and the snapshot must all read the weights
        # the state was made with, whatever happens to the caller's list.
        given = list(self._weights())
        state = FilterState(weights=given, amplitudes=np.ones(4))
        text = state_to_text(state, "tanh")
        given.append(given[0])
        assert state.weights == tuple(given[:2]) and len(state.weights) == state.taps == 2
        assert state == FilterState(weights=tuple(given[:2]), amplitudes=np.ones(4))
        assert state_to_text(state, "tanh") == text
        assert state_from_text(text)[0] == state

    @pytest.mark.parametrize("step", ["constructed", "aashafa"])
    def test_amplitudes_cannot_be_set_writable(self, step):
        # Not even by their owner: the row record serves calls on the very array it was filled from.
        state = FilterState(weights=self._weights(), amplitudes=np.ones(4))
        if step == "aashafa":
            rng = np.random.default_rng(22)
            window = (random_mv(QUAT, rng), random_mv(QUAT, rng))
            state, _ = aashafa_step(state, window, random_mv(QUAT, rng), 0.1, 0.05, TANH)
        with pytest.raises(ValueError, match="WRITEABLE"):
            state.amplitudes.setflags(write=True)
        assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_and_amplitudes_rejected(self, bad):
        weights = self._weights()
        with pytest.raises(ValueError, match="^weights must be finite$"):
            FilterState(weights=(weights[0], Multivector(QUAT, [0.0, bad, 0.0, 0.0])), amplitudes=np.ones(4))
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            FilterState(weights=weights, amplitudes=[1.0, 1.0, bad, 1.0])

    def test_equality_compares_values(self):
        weights = self._weights()
        state = FilterState(weights=weights, amplitudes=np.ones(4))
        same = FilterState(weights=tuple(Multivector(QUAT, w.coeffs) for w in weights), amplitudes=np.ones(4))
        assert state == same and not state != same
        others = [
            dataclasses.replace(state, step=1),
            FilterState(weights=weights, amplitudes=np.full(4, 2.0)),
            FilterState(weights=self._weights(21), amplitudes=np.ones(4)),
            FilterState(weights=weights[:1], amplitudes=np.ones(4)),
            FilterState(weights=tuple(Multivector(Signature(2, 0), w.coeffs) for w in weights), amplitudes=np.ones(4)),
        ]
        for other in others:
            assert state != other and other != state
        assert state != weights
        with pytest.raises(TypeError, match="unhashable"):
            hash(state)


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


@pytest.mark.parametrize("kind", ["ar4", "teacher"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_run_training_algo_defaults_from_config(adaptive, kind):
    # With no algo, run_training runs AASHAFA exactly when the config asks for
    # adaptive amplitudes: the very run of the matching explicit algo.
    config = FilterConfig(sig=QUAT, taps=4, rho=0.01, adaptive_amplitude=adaptive, seed=2)
    spec = SignalSpec(kind=kind, length=80, seed=2)
    default = run_training(config, spec)
    explicit = run_training(config, spec, algo="aashafa" if adaptive else "shafa")
    assert default.rows.table.tobytes() == explicit.rows.table.tobytes()
    assert default.summary == explicit.summary and default.final_state == explicit.final_state
    assert adaptive == (not np.array_equal(default.final_state.amplitudes, np.ones(QUAT.dim)))


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


class TestScalarAndBladeCoefficients:
    """`Multivector.scalar` and `Multivector.basis_blade` take real numbers only, as the config fields do.

    Before, a complex value raised numpy's TypeError from the element
    assignment, and a bool or a numeric string was stored as a float.
    """

    @pytest.mark.parametrize("value", [1j, np.complex128(0.5), "2", True, np.True_, None], ids=repr)
    def test_other_values_raise_value_error(self, value):
        with pytest.raises(ValueError, match=r"^scalar values must be real numbers, got "):
            Multivector.scalar(QUAT, value)
        with pytest.raises(ValueError, match=r"^blade coefficients must be real numbers, got "):
            Multivector.basis_blade(QUAT, 3, value)

    @pytest.mark.parametrize("value", [2, -0.5, np.float32(0.25), np.int64(-3), np.inf, -np.inf, np.nan], ids=repr)
    def test_real_numbers_are_stored(self, value):
        want = np.float64(value)
        assert Multivector.scalar(QUAT, value).coeffs.tobytes() == np.array([want, 0, 0, 0]).tobytes()
        assert Multivector.basis_blade(QUAT, 3, value).coeffs.tobytes() == np.array([0, 0, 0, want]).tobytes()


class TestComplexInputRejected:
    """Complex values raise ValueError where they enter, never reaching a result.

    Before, each of these dropped the imaginary part with only a
    ComplexWarning, and `net_input` of a complex weight array returned a
    Multivector with complex coefficients.
    """

    WINDOW = (Multivector(QUAT, [0.5, -0.25, 0.125, 1.0]), Multivector(QUAT, [1.0, 0.5, -0.5, 0.25]))

    @pytest.mark.parametrize("coeffs", [[1j, 0, 0, 0], np.array([1, 2, 0, 0], dtype=complex)], ids=["1j", "complex"])
    def test_multivector_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="^coefficients must be real, got complex values$"):
            Multivector(QUAT, coeffs)

    def test_vector_components(self):
        with pytest.raises(ValueError, match="^vector components must be real, got complex values$"):
            Multivector.from_vector(QUAT, [1.0, 0.5j])

    def test_filter_state_amplitudes(self):
        with pytest.raises(ValueError, match="^amplitudes must be real, got complex values$"):
            FilterState(weights=self.WINDOW, amplitudes=np.array([1, 1, 1j, 1]))

    def test_net_input_weight_array(self):
        with pytest.raises(ValueError, match="^weights must be real, got complex values$"):
            net_input(np.array([[0.1j, 0, 0, 0]]), self.WINDOW[:1])
        with pytest.raises(ValueError, match="^weights must be real, got complex values$"):
            net_input(np.zeros((2, 4), dtype=complex), self.WINDOW)

    @pytest.mark.parametrize("call", ["mu_bound", "convergence_factor", "split_apply_amplitude"])
    def test_amplitudes_of_the_bounds_and_the_output(self, call):
        # mu_bound and convergence_factor convert them in the row record
        # (cost_gradient reads a FilterState's, which are real).
        s = e = Multivector(QUAT, [0.3, -0.2, 0.1, 0.4])
        lambdas = np.ones(4) + 0.5j
        with pytest.raises(ValueError, match="^amplitudes must be real, got complex values$"):
            if call == "mu_bound":
                hyperfir.mu_bound(self.WINDOW, s, TANH, lambdas)
            elif call == "convergence_factor":
                convergence_factor(self.WINDOW, e, s, TANH, lambdas, 0.1)
            else:
                split_apply_amplitude(lambdas, TANH, s)


#: Arrays that are not integers or floats: bools, numeric strings, None and
#: floats held as Python objects.
NON_REAL_ARRAYS = {
    "bool": [True, False, True, True],
    "string": ["1", "2", "3", "4"],
    "none": [None, 1.0, 2.0, 3.0],
    "object": np.array([1.0, 2.0, 3.0, 4.0], dtype=object),
}


class TestArrayInputTakesRealNumbers:
    """Every array input takes integer and float dtypes only, as scalar input does.

    Before, `Multivector(QUAT, ["1", "2", "3", "4"])` stored 1-4, ``[None, 1,
    2, 3]`` stored a NaN, bool and string amplitudes were read as numbers,
    and `net_input` took a bool weight array and raised numpy's
    UFuncTypeError for a string one.
    """

    WINDOW = (Multivector(QUAT, [0.5, -0.25, 0.125, 1.0]), Multivector(QUAT, [1.0, 0.5, -0.5, 0.25]))
    S = Multivector(QUAT, [0.3, -0.2, 0.1, 0.4])

    def call(self, entry, values):
        if entry == "coefficients":
            return Multivector(QUAT, values).coeffs
        if entry == "vector components":
            return Multivector.from_vector(QUAT, np.asarray(values)[:2]).coeffs
        if entry == "FilterState amplitudes":
            return FilterState(weights=self.WINDOW, amplitudes=values).amplitudes
        if entry == "mu_bound amplitudes":
            return hyperfir.mu_bound(self.WINDOW, self.S, TANH, values)
        if entry == "convergence_factor amplitudes":
            return convergence_factor(self.WINDOW, self.S, self.S, TANH, values, 0.1).m_factor
        if entry == "split_apply_amplitude amplitudes":
            return split_apply_amplitude(values, TANH, self.S).coeffs
        return net_input(np.stack([values, values]), self.WINDOW).coeffs

    @pytest.mark.parametrize("entry", [
        "coefficients", "vector components", "FilterState amplitudes", "mu_bound amplitudes",
        "convergence_factor amplitudes", "split_apply_amplitude amplitudes", "weights",
    ])
    def test_only_integer_and_float_arrays_pass(self, entry):
        what = entry if entry == "vector components" else entry.split()[-1]
        for kind, values in NON_REAL_ARRAYS.items():
            want = "object" if kind == "none" else kind
            with pytest.raises(ValueError, match=f"^{what} must be real, got {want} values$"):
                self.call(entry, values)
        want = np.asarray(self.call(entry, np.array([1.0, 2.0, 3.0, 4.0])))
        for dtype in (np.int8, np.uint16, np.int64, np.float32):
            got = np.asarray(self.call(entry, np.array([1, 2, 3, 4], dtype=dtype)))
            assert got.tobytes() == want.tobytes(), dtype


class TestStepSizesTakeRealNumbers:
    """mu and rho of the steps and the bounds are real numbers, as `FilterConfig`'s are.

    Before, ``mu=True`` read as 1 and ``rho=True`` as 1, and a string or
    complex step size raised TypeError from the range check.
    """

    WINDOW = (Multivector(QUAT, [0.5, -0.25, 0.125, 1.0]), Multivector(QUAT, [1.0, 0.5, -0.5, 0.25]))
    D = Multivector(QUAT, [0.3, -0.2, 0.1, 0.4])

    def call(self, entry, value):
        state = FilterState(weights=self.WINDOW, amplitudes=np.ones(QUAT.dim))
        if entry == "shafa_step mu":
            return shafa_step(state, self.WINDOW, self.D, value, TANH)[1].cost
        if entry == "aashafa_step mu":
            return aashafa_step(state, self.WINDOW, self.D, value, 0.01, TANH)[0].amplitudes
        if entry == "aashafa_step rho":
            return aashafa_step(state, self.WINDOW, self.D, 0.01, value, TANH)[0].amplitudes
        if entry == "convergence_factor mu":
            return convergence_factor(self.WINDOW, self.D, self.D, TANH, np.ones(QUAT.dim), value).m_factor
        return lambda_bound(self.WINDOW, self.D, TANH, value, 1)

    @pytest.mark.parametrize(
        "entry", ["shafa_step mu", "aashafa_step mu", "aashafa_step rho", "convergence_factor mu", "lambda_bound mu"]
    )
    def test_other_values_raise_value_error(self, entry):
        name = entry.split()[-1]
        for value in (True, np.True_, "0.1", 0.1j, None):
            with pytest.raises(ValueError, match=rf"^step sizes must be real numbers, got {name}="):
                self.call(entry, value)
        want = np.asarray(self.call(entry, 0.25)).tobytes()
        assert np.asarray(self.call(entry, np.float64(0.25))).tobytes() == want
        assert np.asarray(self.call(entry, 1)).tobytes() == np.asarray(self.call(entry, 1.0)).tobytes()
