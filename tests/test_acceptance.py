"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np

from hyperfir import (
    FilterConfig,
    FilterState,
    Multivector,
    Signature,
    SignalSpec,
    cost_gradient,
    convergence_factor,
    dual,
    forward,
    get_activation,
    left_contraction,
    mu_bound,
    outer_product,
    product_table,
    project,
    reject,
    run_training,
    shafa_step,
)

from _util import all_signatures, finite_difference_gradient, random_mv, sqafa_step

QUAT = Signature(0, 2)


def verdict(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_basis_blade_involution_identity():
    t0 = time.perf_counter()
    checks = 0
    ok = True
    for sig in all_signatures(6):
        one = Multivector.scalar(sig, 1.0)
        for bits in range(sig.dim):
            blade = Multivector.basis_blade(sig, bits)
            ok &= blade * blade.involution() == one
            ok &= blade.involution() * blade == one
            checks += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"e_A (e_A)~ = 1 exact for {checks} signature-blade pairs in {elapsed:.2f}s")


def test_c02_cauchy_schwarz_bulk():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs_per_sig = 10_000
    violations = 0
    total = 0
    for sig in all_signatures(6):
        table = product_table(sig)
        m = rng.uniform(-5, 5, size=(pairs_per_sig, sig.dim))
        n = rng.uniform(-5, 5, size=(pairs_per_sig, sig.dim))
        # scalar product reduces to a dot weighted by the blade squares
        sp = np.einsum("ij,ij->i", m * table.square_signs, n)
        bound = np.linalg.norm(m, axis=1) * np.linalg.norm(n, axis=1)
        violations += int(np.sum(np.abs(sp) > bound + 1e-12 * bound))
        total += pairs_per_sig
        # tie the vectorized form to the library operation on a subsample
        for k in range(3):
            mv_m = Multivector(sig, m[k])
            mv_n = Multivector(sig, n[k])
            assert np.isclose(mv_m.scalar_product(mv_n), sp[k], rtol=1e-12, atol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    verdict(2, ok, f"|M*N| <= |M||N| on {total} random pairs, {violations} violations, {elapsed:.2f}s")


def test_c03_quaternion_product_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10_000):
        w = rng.uniform(-3, 3, 4)
        x = rng.uniform(-3, 3, 4)
        got = (Multivector(QUAT, w) * Multivector(QUAT, x)).coeffs
        wr, wi, wj, wk = w
        xr, xi, xj, xk = x
        expect = np.array([
            wr * xr - wi * xi - wj * xj - wk * xk,
            wr * xi + wi * xr + wj * xk - wk * xj,
            wr * xj + wj * xr + wk * xi - wi * xk,
            wr * xk + wk * xr + wi * xj - wj * xi,
        ])
        scale = np.linalg.norm(w) * np.linalg.norm(x)
        worst = max(worst, float(np.max(np.abs(got - expect))) / scale)
    verdict(3, worst <= 1e-14, f"component expansion reproduced, max relative error {worst:.2e}")


def test_c04_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    sigs = [Signature(1, 0), Signature(0, 2), Signature(2, 1), Signature(1, 3)]
    worst = 0.0
    for sig in sigs:
        for taps in (1, 4, 8):
            for phi_name in ("tanh", "logistic"):
                phi = get_activation(phi_name)
                for _ in range(100):
                    state = FilterState(
                        weights=tuple(random_mv(sig, rng) for _ in range(taps)),
                        amplitudes=rng.uniform(0.5, 1.5, sig.dim),
                    )
                    window = tuple(random_mv(sig, rng) for _ in range(taps))
                    d = random_mv(sig, rng)
                    analytic = cost_gradient(state, window, d, phi)
                    numeric = finite_difference_gradient(state, window, d, phi, h=1e-5)
                    scale = max(max(g.modulus() for g in analytic), 1e-9)
                    err = max(
                        float(np.max(np.abs(a.coeffs - b.coeffs))) for a, b in zip(analytic, numeric)
                    ) / scale
                    worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    verdict(4, ok, f"analytic vs central-difference gradient, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c05_sqafa_shafa_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(1000):
        taps = 1 + trial % 4
        state = FilterState(
            weights=tuple(random_mv(QUAT, rng) for _ in range(taps)),
            amplitudes=np.ones(4),
        )
        window = tuple(random_mv(QUAT, rng) for _ in range(taps))
        d = random_mv(QUAT, rng)
        mu = float(rng.uniform(0.01, 0.2))
        s1, _ = shafa_step(state, window, d, mu, get_activation("tanh"))
        s2, _ = sqafa_step(state, window, d, mu, get_activation("tanh"))
        for a, b in zip(s1.weights, s2.weights):
            scale = max(a.modulus(), 1e-12)
            worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))) / scale)
    verdict(5, worst <= 1e-14, f"general vs expansion-form quaternion update, max rel diff {worst:.2e}")


def _descent_trial(rng, mu_frac):
    taps = int(rng.integers(1, 4))
    phi = get_activation("tanh")
    state = FilterState(
        weights=tuple(random_mv(QUAT, rng, -0.5, 0.5) for _ in range(taps)),
        amplitudes=np.ones(4),
    )
    window = tuple(random_mv(QUAT, rng) for _ in range(taps))
    d = random_mv(QUAT, rng)
    y, s = forward(state, window, phi)
    e = d - y
    grad_scale = float(np.linalg.norm(e.coeffs * (1 - np.tanh(s.coeffs) ** 2)))
    if e.modulus() < 1e-3 or grad_scale < 1e-3:
        return None
    bound = mu_bound(window, s, phi, state.amplitudes)
    out = []
    for mu in (mu_frac * bound, 0.5 * mu_frac * bound):
        new_state, _ = shafa_step(state, window, d, mu, phi)
        y2, _ = forward(new_state, window, phi)
        e2 = d - y2
        report = convergence_factor(window, e, s, phi, state.amplitudes, mu)
        residual = e2.modulus() ** 2 - e.modulus() ** 2 * (1.0 - report.m_factor)
        out.append((e2.modulus() ** 2, e.modulus() ** 2, residual))
    return out


def test_c06_descent_and_taylor_residual():
    rng = np.random.default_rng(606)
    descents = 0
    trials = 0
    while trials < 1000:
        result = _descent_trial(rng, 0.1)
        if result is None:
            continue
        trials += 1
        post_sq, prior_sq, _ = result[0]
        descents += post_sq < prior_sq
    res_full = []
    res_half = []
    count = 0
    while count < 100:
        result = _descent_trial(rng, 0.1)
        if result is None:
            continue
        count += 1
        res_full.append(abs(result[0][2]))
        res_half.append(abs(result[1][2]))
    ratio = float(np.mean(res_full) / np.mean(res_half))
    ok = descents >= 990 and 3.0 <= ratio <= 5.0
    verdict(
        6,
        ok,
        f"a-posteriori error fell in {descents}/1000 trials; Taylor residual ratio {ratio:.2f} for halved step",
    )


def test_c07_realizable_teacher_learning():
    t0 = time.perf_counter()
    config = FilterConfig(sig=QUAT, taps=4, activation="tanh", mu_auto_frac=0.1, seed=8)
    spec = SignalSpec(kind="teacher", length=5004, seed=7, teacher_taps=2, teacher_radius=8.0)
    report = run_training(config, spec, algo="shafa")
    elapsed = time.perf_counter() - t0
    mse = report.summary.final_mse
    ok = mse < 1e-3 and elapsed < 10.0 and not report.summary.diverged
    verdict(7, ok, f"teacher task final-10% MSE {mse:.2e} over 5000 steps in {elapsed:.1f}s")


def test_c08_adaptive_amplitude_recovers_scaled_targets():
    spec = SignalSpec(
        kind="teacher", length=20004, scale=5.0, seed=4, teacher_taps=1, teacher_radius=1.5
    )
    fixed = FilterConfig(sig=QUAT, taps=1, activation="tanh", mu_auto_frac=0.05, seed=5)
    stalled = run_training(fixed, spec, algo="shafa")
    adaptive = FilterConfig(
        sig=QUAT, taps=1, activation="tanh", mu_auto_frac=0.05, rho=0.01,
        adaptive_amplitude=True, seed=5,
    )
    recovered = run_training(adaptive, spec, algo="aashafa")
    ok = (
        stalled.summary.final_mse > 1.0
        and recovered.summary.final_mse < 1e-2
        and recovered.summary.lambda_ok
        and not recovered.summary.diverged
    )
    verdict(
        8,
        ok,
        "x5 targets: fixed-amplitude MSE "
        f"{stalled.summary.final_mse:.1f} vs adaptive {recovered.summary.final_mse:.2e}, "
        f"max amplitude stability ratio {recovered.summary.max_lambda_ratio:.3f}",
    )


def _random_vector(sig, rng):
    return Multivector.from_vector(sig, rng.uniform(-1, 1, sig.n))


def _random_blade(sig, rng, grade):
    while True:
        blade = Multivector.scalar(sig, 1.0)
        for _ in range(grade):
            blade = outer_product(blade, _random_vector(sig, rng))
        if blade.modulus() > 0.1 and abs(blade.scalar_product(blade)) > 1e-3:
            return blade


def test_c09_graded_product_suite():
    rng = np.random.default_rng(909)
    # contraction chain on 10^4 random triples
    worst = 0.0
    for sig in (Signature(3, 0), Signature(2, 2)):
        for _ in range(5000):
            a, b, c = (random_mv(sig, rng) for _ in range(3))
            lhs = left_contraction(outer_product(a, b), c)
            rhs = left_contraction(a, left_contraction(b, c))
            scale = max(a.modulus() * b.modulus() * c.modulus(), 1e-9)
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale)
    chain_ok = worst <= 1e-12

    # projection/rejection decomposition onto random invertible blades
    decomp_ok = True
    for sig in (Signature(3, 0), Signature(2, 2), Signature(4, 1)):
        for _ in range(300):
            grade = int(rng.integers(1, sig.n))
            blade = _random_blade(sig, rng, grade)
            a = _random_vector(sig, rng)
            back = project(a, blade) + reject(a, blade)
            decomp_ok &= float(np.max(np.abs(back.coeffs - a.coeffs))) <= 1e-9 * max(a.modulus(), 1.0)

    # OPNS/IPNS duality on constructed members and non-members
    from hyperfir import ipns_member, opns_member

    duality_ok = True
    for n in range(2, 6):
        sig = Signature(n, 0)
        for _ in range(100):
            grade = int(rng.integers(1, n))
            spanning = [_random_vector(sig, rng) for _ in range(grade)]
            blade = Multivector.scalar(sig, 1.0)
            for v in spanning:
                blade = outer_product(blade, v)
            if blade.modulus() < 0.05:
                continue
            member = Multivector.zero(sig)
            for v in spanning:
                member = member + float(rng.uniform(-2, 2)) * v
            duality_ok &= opns_member(member, blade)
            duality_ok &= ipns_member(member, dual(blade))
            off = reject(_random_vector(sig, rng), blade)
            if off.modulus() > 0.05:
                outside = member + 3.0 * off
                duality_ok &= not opns_member(outside, blade)
                duality_ok &= not ipns_member(outside, dual(blade))
    ok = chain_ok and decomp_ok and duality_ok
    verdict(
        9,
        ok,
        f"contraction chain max rel err {worst:.2e}; projection+rejection identity and "
        "OPNS/IPNS duality held on all constructed cases",
    )


def test_c10_cli_determinism(tmp_path):
    import subprocess
    import sys

    args = [
        sys.executable, "-m", "hyperfir.cli", "train",
        "--p", "0", "--q", "2", "--taps", "4", "--activation", "tanh",
        "--algo", "aashafa", "--rho", "0.01", "--steps", "300",
        "--signal", "teacher", "--scale", "2.0", "--seed", "13",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = subprocess.run([*args, "--out", str(a)], capture_output=True, text=True)
    rb = subprocess.run([*args, "--out", str(b)], capture_output=True, text=True)
    ok = (
        ra.returncode == 0
        and rb.returncode == 0
        and a.read_bytes() == b.read_bytes()
        and ra.stdout == rb.stdout
    )
    verdict(10, ok, f"identical invocations produced byte-identical CSV ({len(a.read_bytes())} bytes)")
