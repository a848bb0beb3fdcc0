"""Signal generation, training runs, CSV round-trips."""

import collections
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from hyperfir import (
    TANH,
    Activation,
    FilterConfig,
    FilterState,
    Multivector,
    Signature,
    SignalSpec,
    emit_csv,
    generate_signal,
    net_input,
    parse_csv,
    run_training,
    get_activation,
    product_table,
)
from hyperfir import cli, experiments, filtering
from hyperfir.algebra import TABLE_MAX_DIMENSION, ProductTable, ideal_frame
from hyperfir.experiments import (
    SIGNAL_KINDS, TEACHER_RADIUS, StepRow, _companion_radius, _RowTable, _signal_array, csv_header,
)

from _util import (
    EQUIVALENCE_SIGS,
    IDEAL_SIGNATURES,
    all_signatures,
    companion_radius_oracle,
    csv_row_oracle,
    every_ideal_block,
    run_training_reference,
    signal_oracle,
    split_apply,
)

QUAT = Signature(0, 2)


class TestSignalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="chirp", length=100)
        with pytest.raises(ValueError):
            SignalSpec(kind="teacher", length=1)
        with pytest.raises(ValueError):
            SignalSpec(kind="ar4", length=100, scale=0.0)
        with pytest.raises(ValueError):
            SignalSpec(kind="ar4", length=100, noise_std=-1.0)
        with pytest.raises(ValueError, match="teacher_taps"):
            SignalSpec(kind="teacher", length=3)
        for kind in SIGNAL_KINDS:
            with pytest.raises(ValueError, match=r"^teacher_taps must be >= 1$"):
                SignalSpec(kind=kind, length=10, teacher_taps=0)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    def test_rejects_unknown_teacher_activation(self, kind):
        # Every kind checks the name where the spec is built; a teacher spec
        # used to fail only when its signal was generated, and the others never.
        with pytest.raises(ValueError, match=r"^unknown activation 'bogus'; choose from \['identity', 'logistic', 'tanh'\]$"):
            SignalSpec(kind=kind, length=10, teacher_activation="bogus")

    @pytest.mark.parametrize("field", ["scale", "noise_std", "teacher_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SignalSpec(kind="teacher", length=100, **{field: value})

    @pytest.mark.parametrize("field", ["scale", "noise_std", "teacher_radius"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "2", None, [2.0], 2j], ids=repr)
    def test_rejects_non_real_numbers(self, field, value):
        # scale=True, noise_std=False and teacher_radius=True used to be
        # stored as bools, and scale="2" to fail with a TypeError.
        with pytest.raises(
            ValueError, match=rf"^scale, noise_std and teacher_radius must be real numbers, got {field}="
        ):
            SignalSpec(kind="teacher", length=100, **{field: value})

    @pytest.mark.parametrize("value", [2, np.int8(2), np.float32(0.5), 0.5], ids=repr)
    def test_python_and_numpy_reals_stored_as_given(self, value):
        spec = SignalSpec(kind="teacher", length=100, scale=value, noise_std=value, teacher_radius=value)
        assert spec.scale is value and spec.noise_std is value and spec.teacher_radius is value

    @pytest.mark.parametrize("field", ["length", "teacher_taps", "seed"])
    @pytest.mark.parametrize("value", [True, 10.5, 10.0, np.float64(10.0), "10"], ids=repr)
    def test_rejects_non_integer_counts(self, field, value):
        # 10.5 used to fail later with a TypeError from inside numpy, and True
        # to pass as 1.
        with pytest.raises(ValueError, match="integers"):
            SignalSpec(kind="teacher", **{"length": 100, field: value})

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @pytest.mark.parametrize("seed", [-1, -3, np.int64(-2)], ids=repr)
    def test_rejects_negative_seed(self, kind, seed):
        # A negative seed used to pass here and fail in numpy's generator with
        # a message that names no field.
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -\d$"):
            SignalSpec(kind=kind, length=40, seed=seed)

    def test_numpy_integer_counts_stored_as_int(self):
        spec = SignalSpec(kind="teacher", length=np.int64(40), teacher_taps=np.int32(3), seed=np.uint8(7))
        assert (type(spec.length), type(spec.teacher_taps), type(spec.seed)) == (int, int, int)
        assert (spec.length, spec.teacher_taps, spec.seed) == (40, 3, 7)


class TestGenerateSignal:
    @pytest.mark.parametrize("kind", ["teacher", "ar4", "circular"])
    def test_deterministic(self, kind):
        spec = SignalSpec(kind=kind, length=64, seed=123, noise_std=0.1)
        a, _ = generate_signal(spec, QUAT)
        b, _ = generate_signal(spec, QUAT)
        assert len(a) == 64
        assert all(x == y for x, y in zip(a, b))

    def test_seed_changes_sequence(self):
        a, _ = generate_signal(SignalSpec(kind="circular", length=64, seed=0), QUAT)
        b, _ = generate_signal(SignalSpec(kind="circular", length=64, seed=1), QUAT)
        assert any(x != y for x, y in zip(a, b))

    def test_circular_amplitude(self):
        spec = SignalSpec(kind="circular", length=800, scale=2.5, seed=7)
        samples, hidden = generate_signal(spec, QUAT)
        assert hidden is None
        arr = np.array([s.coeffs for s in samples])
        assert np.all(np.abs(arr) <= 2.5 + 1e-12)
        assert np.max(np.abs(arr), axis=0).min() >= 0.95 * 2.5

    def test_ar4_is_noise_driven(self):
        spec = SignalSpec(kind="ar4", length=256, seed=3)
        samples, hidden = generate_signal(spec, QUAT)
        assert hidden is None
        arr = np.array([s.coeffs for s in samples])
        assert arr.std() > 0.5  # unit-variance drive keeps it alive

    def test_teacher_reproducible_from_hidden_weights(self):
        spec = SignalSpec(kind="teacher", length=60, seed=11, teacher_taps=3)
        samples, hidden = generate_signal(spec, QUAT)
        assert hidden is not None and len(hidden) == 3
        phi = get_activation(spec.teacher_activation)
        for m in range(len(hidden) - 1, len(samples) - 1):
            window = tuple(samples[m - i] for i in range(len(hidden)))
            predicted = split_apply(phi, net_input(hidden, window)) * spec.scale
            assert np.allclose(predicted.coeffs, samples[m + 1].coeffs, rtol=1e-12, atol=1e-12)

    def test_teacher_scale_respected(self):
        spec = SignalSpec(kind="teacher", length=400, scale=5.0, seed=2)
        samples, _ = generate_signal(spec, QUAT)
        arr = np.array([s.coeffs for s in samples])
        assert np.all(np.abs(arr) <= 5.0 + 1e-9)
        assert np.abs(arr[50:]).max() > 1.5  # genuinely exceeds unit activation range

    def test_teacher_signal_stays_alive(self):
        for seed in range(5):
            spec = SignalSpec(kind="teacher", length=1000, seed=seed)
            samples, _ = generate_signal(spec, QUAT)
            arr = np.array([s.coeffs for s in samples])
            assert np.linalg.norm(arr[-200:], axis=1).std() + np.abs(arr[-200:]).max() > 0.05

    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["teacher", "ar4", "circular"])
    def test_samples_wrap_the_signal_array(self, kind, noise_std):
        spec = SignalSpec(kind=kind, length=40, noise_std=noise_std, seed=6)
        rows, hidden = _signal_array(spec, QUAT)
        samples, hidden_mv = generate_signal(spec, QUAT)
        assert rows.shape == (40, 4) and not rows.flags.writeable
        assert np.array_equal(rows, [x.coeffs for x in samples])
        if kind == "teacher":
            assert not hidden.flags.writeable
            assert np.array_equal(hidden, [w.coeffs for w in hidden_mv])
        else:
            assert hidden is None and hidden_mv is None

    def test_teacher_works_beyond_dense_table_cap(self):
        spec = SignalSpec(kind="teacher", length=12, seed=0, teacher_taps=2)
        samples, hidden = generate_signal(spec, Signature(5, 4))
        assert len(samples) == 12 and len(hidden) == 2
        assert all(s.is_finite() for s in samples)


@pytest.mark.parametrize("kind", ["teacher", "ar4", "circular"])
@pytest.mark.parametrize("sig", EQUIVALENCE_SIGS, ids=str)
def test_signal_array_matches_per_sample_loops_bit_for_bit(sig, kind):
    # One batched product and one reduction per sample give the bits of the
    # per-tap loops, over seeds, scales, activations and noise.
    for seed, scale, activation in [(0, 1.0, "tanh"), (1, 2.5, "logistic"), (2, 0.5, "identity")]:
        for noise_std in (0.0, 0.1):
            spec = SignalSpec(
                kind=kind, length=12 if sig.n > TABLE_MAX_DIMENSION else 40, scale=scale, noise_std=noise_std,
                seed=seed, teacher_taps=2 if sig.n > TABLE_MAX_DIMENSION else 3 + seed, teacher_activation=activation,
            )
            rows, _ = _signal_array(spec, sig)
            assert np.array_equal(rows.view(np.int64), signal_oracle(spec, sig).view(np.int64)), (seed, noise_std)


@pytest.mark.parametrize(
    "sig,length",
    [(Signature(0, 1), 40), (Signature(0, 2), 5000), (Signature(0, 3), 40), (Signature(2, 2), 40),
     (Signature(4, 1), 40), (Signature(4, 1), 5000), (Signature(0, 6), 40)],
    ids=str,
)
def test_ar4_paths_match_per_sample_loop_bit_for_bit(sig, length, monkeypatch):
    # The recursion on Python floats (up to _AR4_FLOAT_DIM components) and
    # the numpy one give the bits of the per-sample loop, each forced on
    # signals on either side of the crossover: Cl(0,3) is the widest on
    # floats by default, Cl(2,2), Cl(4,1) and Cl(0,6) run on numpy.
    spec = SignalSpec(kind="ar4", length=length, scale=1.5, noise_std=0.1, seed=sig.dim)
    expect = signal_oracle(spec, sig).view(np.int64)
    assert np.array_equal(_signal_array(spec, sig)[0].view(np.int64), expect)
    for float_dim in (sig.dim - 1, sig.dim):
        monkeypatch.setattr(experiments, "_AR4_FLOAT_DIM", float_dim)
        assert np.array_equal(_signal_array(spec, sig)[0].view(np.int64), expect), float_dim


def teacher_weights_oracle(spec: SignalSpec, sig: Signature) -> np.ndarray:
    """Hidden teacher weights from the same bisection on the full companion matrix."""
    raw = np.random.default_rng(spec.seed).uniform(-1.0, 1.0, size=(spec.teacher_taps, sig.dim))
    mats = [product_table(sig).left_matrix(w) for w in raw]
    slope0 = float(get_activation(spec.teacher_activation).deriv(np.zeros(1))[0])

    def radius(c):
        return companion_radius_oracle([c * spec.scale * slope0 * m for m in mats])

    lo, hi = 0.0, 1.0
    while radius(hi) < spec.teacher_radius:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < spec.teacher_radius else (lo, mid)
    return raw * (0.5 * (lo + hi))


class TestTeacherRadius:
    @pytest.mark.parametrize(
        "sig,taps",
        [(Signature(p, q), 1) for p, q in [(1, 0), (2, 1), (0, 3), (3, 0), (4, 1), (0, 6), (5, 4)]]
        + [(Signature(2, 1), 3), (Signature(0, 3), 3), (Signature(4, 1), 3)],
        ids=str,
    )
    def test_ideal_blocks_give_the_full_companion_radius(self, sig, taps):
        # Every ideal's block: frame.blocks for the classes, the dense U_e for the rest.
        rng = np.random.default_rng(taps * sig.dim)
        w = np.stack([rng.uniform(-1.0, 1.0, size=sig.dim) for _ in range(taps)])
        reduced = _companion_radius(every_ideal_block(sig, w))
        full = companion_radius_oracle([product_table(sig).left_matrix(w_l) for w_l in w])
        assert abs(reduced - full) <= 1e-12 * full

    @pytest.mark.parametrize("sig", IDEAL_SIGNATURES, ids=str)
    def test_one_block_per_class_gives_the_full_companion_radius(self, sig):
        rng = np.random.default_rng(sig.dim + 2)
        w = np.stack([rng.uniform(-1.0, 1.0, size=sig.dim) for _ in range(2)])
        reduced = _companion_radius(ideal_frame(sig).blocks(w))
        full = companion_radius_oracle([product_table(sig).left_matrix(w_l) for w_l in w])
        assert abs(reduced - full) <= 1e-12 * full

    @pytest.mark.parametrize("sig", [Signature(0, 2), Signature(0, 3), Signature(4, 1), Signature(0, 6)], ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hidden_weights_match_full_companion_bisection(self, sig, seed):
        spec = SignalSpec(kind="teacher", length=504, seed=seed, teacher_taps=4)
        _, hidden = generate_signal(spec, sig)
        got = np.stack([w.coeffs for w in hidden])
        assert np.allclose(got, teacher_weights_oracle(spec, sig), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("sig", [Signature(0, 2), Signature(4, 1), Signature(5, 4)], ids=str)
    def test_left_matrices_built_once_from_the_hidden_weights(self, sig, monkeypatch):
        # The companion's blocks come from the frame, so the recursion's left
        # matrices are the only ones: one per tap, each of a returned row.
        seen = []
        original = ProductTable.left_matrix

        def recorded(table, a):
            seen.append(np.array(a))
            return original(table, a)

        monkeypatch.setattr(ProductTable, "left_matrix", recorded)
        spec = SignalSpec(kind="teacher", length=8, seed=1, teacher_taps=3)
        _, hidden = _signal_array(spec, sig)
        assert len(seen) == spec.teacher_taps
        assert all(np.array_equal(a.view(np.int64), w.view(np.int64)) for a, w in zip(seen, hidden))

    def test_exact_radius_beyond_256_companion_rows(self):
        # 3 taps x 128 blades: a 384-row companion, checked by its full eigvals.
        sig = Signature(2, 5)
        spec = SignalSpec(kind="teacher", length=12, seed=0, teacher_taps=3)
        _, hidden = generate_signal(spec, sig)
        mats = [product_table(sig).left_matrix(w.coeffs) for w in hidden]
        assert abs(companion_radius_oracle(mats) - TEACHER_RADIUS) <= 1e-9


class TestRunTraining:
    def test_minimal_run_single_row(self):
        config = FilterConfig(sig=QUAT, taps=4, seed=0)
        spec = SignalSpec(kind="circular", length=5, seed=0)
        report = run_training(config, spec)
        assert len(report.rows) == 1
        assert report.rows[0].step == 0

    def test_row_count(self):
        config = FilterConfig(sig=QUAT, taps=3, seed=0)
        spec = SignalSpec(kind="ar4", length=40, seed=0)
        report = run_training(config, spec)
        assert len(report.rows) == 40 - 3

    def test_length_validation(self):
        config = FilterConfig(sig=QUAT, taps=4, seed=0)
        with pytest.raises(ValueError):
            run_training(config, SignalSpec(kind="ar4", length=4, seed=0))
        with pytest.raises(ValueError):
            run_training(config, SignalSpec(kind="ar4", length=40, seed=0), algo="qngd")

    @pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "circular")])
    def test_m_factor_bounds(self, algo, kind):
        config = FilterConfig(
            sig=QUAT, taps=4, mu_auto_frac=0.2, rho=0.02,
            adaptive_amplitude=algo == "aashafa", seed=1,
        )
        spec = SignalSpec(kind=kind, length=300, seed=1)
        report = run_training(config, spec, algo=algo)
        assert not report.summary.diverged
        for row in report.rows:
            assert row.m_factor >= 0.0
            if row.mu_used <= row.mu_bound:
                assert row.m_factor < 1.0

    def test_linear_realizable_teacher_converges(self):
        # identity activation, single-tap unit-modulus teacher: plain LMS
        config = FilterConfig(sig=QUAT, taps=1, activation="identity", mu_auto_frac=0.3, seed=3)
        spec = SignalSpec(
            kind="teacher", length=2001, seed=3, teacher_taps=1, teacher_activation="identity"
        )
        report = run_training(config, spec)
        assert not report.summary.diverged
        assert report.summary.final_mse < 1e-6

    def test_divergence_halts_run(self):
        # identity output is unbounded, so a step size far past the bound blows up
        config = FilterConfig(sig=QUAT, taps=2, activation="identity", mu=50.0, seed=0)
        spec = SignalSpec(kind="ar4", length=400, seed=0)
        report = run_training(config, spec)
        assert report.summary.diverged
        assert len(report.rows) < 400 - 2
        assert report.rows[-1].cost > 1e6 or not np.isfinite(report.rows[-1].cost)

    def test_divergence_to_non_finite_weights_keeps_partial_rows(self):
        # FilterState(...) rejects non-finite weights, but a step hands its
        # state on unchecked, so a run whose weights overflow still ends with
        # its rows and the diverged flag.
        config = FilterConfig(sig=QUAT, taps=2, activation="identity", mu=1e200, seed=0)
        report = run_training(config, SignalSpec(kind="ar4", length=400, seed=0))
        assert report.summary.diverged
        assert 0 < len(report.rows) < 400 - 2
        assert not np.isfinite(report.rows[-1].cost)
        final = report.final_state
        assert not np.isfinite([w.coeffs for w in final.weights]).all()
        with pytest.raises(ValueError, match="^weights must be finite$"):
            FilterState(weights=final.weights, amplitudes=final.amplitudes)

    def test_steps_to_threshold(self):
        config = FilterConfig(sig=QUAT, taps=1, activation="identity", mu_auto_frac=0.3, seed=3)
        spec = SignalSpec(
            kind="teacher", length=2001, seed=3, teacher_taps=1, teacher_activation="identity"
        )
        report = run_training(config, spec)
        t = report.summary.steps_to_threshold
        assert t is not None
        assert report.rows[t].cost < 1e-3
        assert all(r.cost >= 1e-3 for r in report.rows[:t])


def _bits(value) -> np.ndarray:
    # The float64 bit patterns of a number or tuple of numbers: tells -0.0
    # from 0.0 and compares NaN payloads.
    return np.asarray(value, dtype=float).view(np.int64)


def _assert_run_matches_reference(config, spec, algo):
    # Every row field, the final state and the summary's flag and lambda
    # ratio of run_training, bit for bit against run_training_reference.
    report = run_training(config, spec, algo=algo)
    rows, state, diverged, max_ratio = run_training_reference(config, spec, algo)
    assert len(report.rows) == len(rows) > 0
    for got, want in zip(report.rows, rows):
        for field in dataclasses.fields(StepRow):
            assert np.array_equal(_bits(getattr(got, field.name)), _bits(getattr(want, field.name))), (
                got.step, field.name)
    final = report.final_state
    assert np.array_equal(_bits([w.coeffs for w in final.weights]), _bits([w.coeffs for w in state.weights]))
    assert np.array_equal(_bits(final.amplitudes), _bits(state.amplitudes))
    assert final.step == state.step
    assert report.summary.diverged == diverged
    assert np.array_equal(_bits(report.summary.max_lambda_ratio), _bits(max_ratio))
    return report


@pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "teacher")])
@pytest.mark.parametrize("sig", EQUIVALENCE_SIGS, ids=str)
def test_rows_match_plain_tuple_loop_bit_for_bit(sig, algo, kind):
    # run_training stacks its windows and weights once per run; the public
    # per-step functions driven with plain tuples must give the same bits.
    taps = 2 if sig.n > TABLE_MAX_DIMENSION else 4
    config = FilterConfig(
        sig=sig, taps=taps, mu_auto_frac=0.1, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=sig.p + 7,
    )
    spec = SignalSpec(kind=kind, length=taps + (30 if sig.n > TABLE_MAX_DIMENSION else 120), seed=sig.q + 11)
    _assert_run_matches_reference(config, spec, algo)


#: Fixed step sizes far past the bound.  Identity runs blow up within a few
#: rows; logistic ones saturate and run on with lambda ratios up to inf; at
#: mu = 1e307 the cost turns NaN, and that row's NaN lambda ratio must not
#: reach the summary.
DIVERGING_RUNS = [
    (Signature(0, 2), "identity", 50.0, "shafa", "ar4", "diverged"),
    (Signature(3, 0), "identity", 50.0, "aashafa", "teacher", "diverged"),
    (Signature(0, 1), "identity", 5000.0, "aashafa", "teacher", "diverged"),
    (Signature(2, 1), "identity", 5000.0, "shafa", "circular", "diverged"),
    (Signature(3, 0), "logistic", 50.0, "shafa", "ar4", "saturated"),
    (Signature(0, 2), "logistic", 5000.0, "aashafa", "teacher", "saturated"),
    (Signature(2, 1), "logistic", 5000.0, "shafa", "ar4", "saturated"),
    (Signature(0, 2), "identity", 1e307, "shafa", "ar4", "nan"),
    (Signature(0, 2), "logistic", 1e307, "shafa", "ar4", "nan"),
    (Signature(1, 1), "logistic", 1e307, "shafa", "ar4", "nan"),
]


@pytest.mark.parametrize("sig,activation,mu,algo,kind,outcome", DIVERGING_RUNS, ids=str)
def test_diverging_runs_match_plain_tuple_loop_bit_for_bit(sig, activation, mu, algo, kind, outcome):
    config = FilterConfig(
        sig=sig, taps=4, activation=activation, mu=mu, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=3,
    )
    report = _assert_run_matches_reference(config, SignalSpec(kind=kind, length=124, seed=5), algo)
    last = report.rows[-1].cost
    assert report.summary.diverged == (outcome != "saturated")
    assert np.isnan(last) == (outcome == "nan")
    assert not np.isnan(report.summary.max_lambda_ratio)


def _within(got, want, scale, rtol=1e-12):
    # Entries finite on both sides differ by at most rtol times their scale.
    got, want, scale = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float), scale)
    both = np.isfinite(got) & np.isfinite(want) & np.isfinite(scale)
    return bool(np.all(np.abs(got - want)[both] <= rtol * scale[both]))


#: One run that learns and one whose identity activation and fixed step far
#: past the bound blow up within a few rows.
LEFT_MATRIX_RUNS = [
    ("tanh", None, "aashafa", "teacher"),
    ("identity", 50.0, "shafa", "ar4"),
]


@pytest.mark.parametrize("activation,mu,algo,kind", LEFT_MATRIX_RUNS, ids=str)
@pytest.mark.parametrize("sig", [*all_signatures(4), Signature(0, 6), Signature(4, 4)], ids=str)
def test_row_products_stay_within_rtol_of_left_matrix_products(sig, activation, mu, algo, kind):
    # The row's products come from right-multiplication matrices in gemv
    # order (at Cl(4,4) from one table product per tap); the same products
    # through left matrices, per tap and summed from zero in tap order, with
    # np.dot for |.|^2, differ only by rounding.  Each is checked against
    # rtol 1e-12 times the sum of the magnitudes of its terms, the scale of a
    # dot product's rounding error.
    taps = 4
    config = FilterConfig(
        sig=sig, taps=taps, activation=activation, mu=mu, mu_auto_frac=None if mu else 0.1, rho=0.01,
        adaptive_amplitude=algo == "aashafa", seed=sig.p + 5,
    )
    phi = config.activation
    table = product_table(sig)
    signal, _ = _signal_array(SignalSpec(kind=kind, length=taps + (30 if sig.n > 4 else 80), seed=sig.q + 3), sig)
    state = filtering.init_state(config)
    costs = []
    with np.errstate(all="ignore"):
        for m, window in enumerate(filtering._signal_windows(sig, signal[:-1], taps), start=taps - 1):
            d = Multivector(sig, signal[m + 1])
            weights, lambdas = state._weights, state.amplitudes
            lefts = [table.left_matrix(w) for w in weights]
            want = np.add.reduce([a @ x for a, x in zip(lefts, window.coeffs)], axis=0, initial=0.0)
            scale = np.add.reduce([np.abs(a) @ np.abs(x) for a, x in zip(lefts, window.coeffs)], axis=0)
            s = net_input(state._weights, window)
            assert _within(s.coeffs, want, scale), (m, "s")

            inv_lefts = [table.left_matrix(x) for x in window.inv]
            want = np.add.reduce([a @ x for a, x in zip(inv_lefts, window.coeffs)], axis=0, initial=0.0)
            scale = np.add.reduce([np.abs(a) @ np.abs(x) for a, x in zip(inv_lefts, window.coeffs)], axis=0)
            assert _within(filtering.window_energy(window).coeffs, want, scale), (m, "x~.x")

            bound = filtering.mu_bound(window, s, phi, lambdas)
            step_mu = config.mu if config.mu is not None else config.mu_auto_frac * bound
            new_state, record = (
                filtering.aashafa_step(state, window, d, step_mu, config.rho, phi) if algo == "aashafa"
                else filtering.shafa_step(state, window, d, step_mu, phi)
            )
            f = record.e.coeffs * lambdas * phi.deriv(record.s.coeffs)
            f_left = table.left_matrix(f)
            want = np.array([f_left @ x for x in window.inv])
            scale = np.array([np.abs(f_left) @ np.abs(x) for x in window.inv])
            directions = np.array([g.coeffs for g in filtering.cost_gradient(state, window, d, phi)]) / -2.0
            assert _within(directions, want, scale), (m, "directions")
            if 0.0 < record.cost < np.inf:
                report = filtering.convergence_factor(window, record.e, record.s, phi, lambdas, step_mu)
                e_sq = float(np.dot(record.e.coeffs, record.e.coeffs))
                m_want = 2.0 * step_mu * sum(float(np.dot(v, v)) for v in want) / e_sq
                m_scale = 2.0 * step_mu * float(np.sum(2.0 * scale * scale)) / e_sq
                assert _within(report.m_factor, m_want, m_scale), (m, "M")
            state = new_state
            costs.append(record.cost)
            if not np.isfinite(record.cost):
                break
    # The learning run stays below the divergence limit; the other passes it
    # and goes on, past where run_training stops, until its cost overflows.
    assert (max(costs) > 1e6) == (mu is not None), max(costs)


@pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "teacher")])
def test_run_training_holds_right_matrices_of_a_bounded_number_of_samples(algo, kind):
    # R(x_t) and R(x~_t) of every sample of a 2000-row run on Cl(0,6) would
    # take 2 * 64 floats per blade and row (131 MB).  The windows hold them in
    # blocks of a bounded size, so the traced peak grows only with the
    # run's own per-row arrays: the signal, its reversed stack and
    # involutions, the row table and the amplitudes and slopes it is built
    # from, about 10 floats per blade and row.
    sig = Signature(0, 6)
    config = FilterConfig(sig=sig, taps=4, mu_auto_frac=0.1, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=1)
    peaks = []
    for rows in (500, 2000):
        spec = SignalSpec(kind=kind, length=4 + rows, seed=2)
        run_training(config, spec, algo=algo)  # tables and caches filled outside the trace
        tracemalloc.start()
        try:
            report = run_training(config, spec, algo=algo)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(report.rows) == rows
    assert peaks[1] - peaks[0] <= 1500 * 16 * sig.dim * 8, peaks


@pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "teacher")])
def test_run_training_builds_no_multivector_per_row(monkeypatch, algo, kind):
    # The signal is read as one array and the targets wrap its rows, so the
    # number of Multivector(...) constructions does not grow with the run.
    calls = []
    init = Multivector.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Multivector, "__init__", counting)
    config = FilterConfig(sig=QUAT, taps=4, mu_auto_frac=0.1, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=3)
    counts = []
    for rows in (50, 500):
        report = run_training(config, SignalSpec(kind=kind, length=4 + rows, seed=4), algo=algo)
        assert len(report.rows) == rows
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "teacher")])
def test_run_training_builds_rows_on_access(monkeypatch, tmp_path, capsys, algo, kind):
    # The rows live in one table: run_training, len, emit_csv and
    # `hyperfir train` build no StepRow, and a row read later is built once
    # and equals the reference.
    built = []
    init = StepRow.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StepRow, "__init__", counting)
    config = FilterConfig(sig=QUAT, taps=4, mu_auto_frac=0.1, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=3)
    for count in (50, 500):
        report = run_training(config, SignalSpec(kind=kind, length=4 + count, seed=4), algo=algo)
        assert len(report.rows) == count
        assert built == []
    emit_csv(report, os.devnull)
    assert cli.main(["train", "--steps", "50", "--algo", algo, "--signal", kind, "--out", str(tmp_path / "t.csv")]) == 0
    assert "rows: 50\n" in capsys.readouterr().out
    assert built == []
    last = report.rows[-1]
    assert report.rows[-1] is last and report.rows[count - 1] is last and len(built) == 1
    assert type(last.step) is int and last.step == count - 1
    assert type(last.lambdas) is tuple and all(type(x) is float for x in last.lambdas)
    expect, *_ = run_training_reference(config, SignalSpec(kind=kind, length=4 + count, seed=4), algo)
    assert report.rows == expect and list(report.rows) == expect and report.rows[10:20] == expect[10:20]


@pytest.mark.parametrize("algo,kind", [("shafa", "ar4"), ("aashafa", "teacher")])
@pytest.mark.parametrize("sig", [QUAT, Signature(4, 1)], ids=str)
def test_row_record_computes_each_quantity_once(monkeypatch, sig, algo, kind):
    # Per row at L = 4 the public calls share one record, with one phi'
    # evaluation, and the row's products come from its window's right-
    # multiplication matrices: no left matrix and no `multiply_rows` per row,
    # and each sample's R(x_t) and R(x~_t) gathered once (two
    # `right_matrices` rows per sample, so per row).  Counted as the
    # difference of two run lengths, so that the set-up work of a run (the
    # teacher's matrices) cancels.
    counts = collections.Counter()

    def count(owner, name, weight=lambda *args, **kwargs: 1):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += weight(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ProductTable, "left_matrix")
    count(ProductTable, "multiply_rows")
    count(ProductTable, "right_matrices", weight=lambda table, x, out=None: len(x))

    def deriv(t):
        counts["deriv"] += 1
        return TANH.deriv(t)

    phi = Activation("tanh", TANH.func, deriv)
    config = FilterConfig(
        sig=sig, taps=4, activation=phi, mu_auto_frac=0.1, rho=0.01, adaptive_amplitude=algo == "aashafa", seed=3,
    )
    totals = []
    for rows in (20, 120):
        counts.clear()
        report = run_training(config, SignalSpec(kind=kind, length=4 + rows, seed=4), algo=algo)
        assert len(report.rows) == rows and not report.summary.diverged
        totals.append(collections.Counter(counts))
    per_row = {name: n / 100 for name, n in (totals[1] - totals[0]).items()}
    assert per_row.pop("right_matrices") <= 2
    assert per_row == {"deriv": 1}


class TestCsv:
    def _small_report(self):
        config = FilterConfig(sig=QUAT, taps=2, mu_auto_frac=0.1, rho=0.05, adaptive_amplitude=True, seed=5)
        spec = SignalSpec(kind="ar4", length=30, seed=5)
        return run_training(config, spec, algo="aashafa")

    def test_header(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "trace.csv"
        emit_csv(report, path)
        first = path.read_text().splitlines()[0]
        assert first == "step,E,mu_used,mu_bound,M,lambda_0,lambda_1,lambda_2,lambda_3"

    def test_roundtrip_bit_exact(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "trace.csv"
        emit_csv(report, path)
        rows = parse_csv(path)
        assert rows == report.rows

    def test_row_count_and_empty(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "trace.csv"
        emit_csv(report, path)
        assert len(path.read_text().splitlines()) == len(report.rows) + 1
        from dataclasses import replace

        empty = replace(report, rows=[])
        emit_csv(empty, path)
        assert path.read_text().splitlines() == [
            "step,E,mu_used,mu_bound,M,lambda_0,lambda_1,lambda_2,lambda_3"
        ]

    def test_special_floats_match_per_field_format(self, tmp_path):
        # One %-format per row writes the bytes of the per-field join.
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(61)
        values = specials + (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
        rows = [
            StepRow(step=i * 997, cost=values[i], mu_used=values[i - 1], mu_bound=values[i - 2],
                    m_factor=values[i - 3], lambdas=tuple(values[i - 4 - k] for k in range(4)))
            for i in range(len(values))
        ]
        report = dataclasses.replace(self._small_report(), rows=rows)
        path = tmp_path / "trace.csv"
        emit_csv(report, path)
        expect = "\n".join([csv_header(4)] + [csv_row_oracle(r) for r in rows]) + "\n"
        assert path.read_bytes() == expect.encode()

    def test_constant_columns_match_per_field_format(self, tmp_path):
        # Columns formatted once because their bits repeat in every row (all-ones
        # amplitudes, a fixed mu, a repeated NaN, +-inf, a subnormal) and columns
        # that are not constant by bits (0.0 next to -0.0, two NaN signs) give
        # the bytes of the per-field join, from a row table and from StepRows.
        nan, neg_nan = float("nan"), -float("nan")
        assert np.float64(nan).view(np.int64) != np.float64(neg_nan).view(np.int64)
        columns = [
            [0.0, -0.0, 0.0, -0.0, 0.0],  # cost: zeros of both signs
            [0.05] * 5,  # fixed mu
            [nan] * 5,  # mu_bound: a repeated NaN
            [nan, neg_nan, nan, nan, neg_nan],  # M: NaNs of both signs
            [1.0] * 5, [1.0] * 5, [np.inf] * 5, [-np.inf] * 5,  # amplitudes
        ]
        rows = [
            StepRow(step=i, cost=columns[0][i], mu_used=columns[1][i], mu_bound=columns[2][i],
                    m_factor=columns[3][i], lambdas=tuple(c[i] for c in columns[4:]))
            for i in range(5)
        ]
        subnormal = [dataclasses.replace(r, lambdas=(1.0, 5e-324, -5e-324, 1.0)) for r in rows]
        expect_bytes = {}
        for name, case in (("specials", rows), ("subnormal", subnormal), ("one row", rows[1:2])):
            expect = ("\n".join([csv_header(4)] + [csv_row_oracle(r) for r in case]) + "\n").encode()
            expect_bytes[name] = expect
            table = np.array([(r.step, r.cost, r.mu_used, r.mu_bound, r.m_factor, *r.lambdas) for r in case])
            for form in (case, _RowTable(table)):
                report = dataclasses.replace(self._small_report(), rows=form)
                path = tmp_path / "trace.csv"
                emit_csv(report, path)
                assert path.read_bytes() == expect, (name, type(form))
        assert b",-0," in expect_bytes["specials"] and b",nan,nan,1,1,inf,-inf" in expect_bytes["specials"]

    def test_run_with_constant_columns_matches_per_field_format(self, tmp_path):
        # A SHAFA run at a fixed mu: its mu and amplitude columns are constant.
        config = FilterConfig(sig=Signature(0, 3), taps=3, mu=0.02, seed=8)
        report = run_training(config, SignalSpec(kind="ar4", length=60, seed=8), algo="shafa")
        path = tmp_path / "trace.csv"
        emit_csv(report, path)
        expect = "\n".join([csv_header(8)] + [csv_row_oracle(r) for r in report.rows]) + "\n"
        assert path.read_bytes() == expect.encode()
        assert {r.lambdas for r in report.rows} == {(1.0,) * 8} and {r.mu_used for r in report.rows} == {0.02}

    def test_rows_with_wrong_lambda_count_are_rejected(self, tmp_path):
        # 3 rows of 1 lambda each hold 18 values; they must not be laid out
        # as 2 rows of the report's 9 fields.
        report = self._small_report()
        rows = [dataclasses.replace(r, lambdas=r.lambdas[:1]) for r in report.rows[:3]]
        with pytest.raises(ValueError):
            emit_csv(dataclasses.replace(report, rows=rows), tmp_path / "trace.csv")

    def test_amplitudes_recorded_pre_update(self):
        report = self._small_report()
        assert report.rows[0].lambdas == (1.0, 1.0, 1.0, 1.0)

    def test_parse_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            parse_csv(path)
        path.write_text("nope,really\n1,2\n")
        with pytest.raises(ValueError):
            parse_csv(path)
        path.write_text("step,E,mu_used,mu_bound,M,lambda_0\n0,1.0,0.1\n")
        with pytest.raises(ValueError):
            parse_csv(path)
