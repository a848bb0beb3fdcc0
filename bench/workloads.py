"""Workloads of the hyperfir benchmark: inputs from a seed, timed calls, output checks.

Every workload offers the same four steps to the runner in ``run.py``:

* ``setup(hf)``: the cold-start work (product tables, one ``generate_signal``
  per training job, operands); its products go to ``fingerprint`` untimed,
  so repeated set-ups can be checked for identical inputs.
* ``calls(hf)``: one cycle of timed public calls as ``(key, fn)`` pairs.
* ``result(key, raw)``: turns a call's raw return value into a comparable
  value, untimed.  Every later call of a key must reproduce the first result.
* ``check(key, result, hf)``: checks the first result of a key against an
  independent reference, untimed; returns a failure message or None.

``hf`` is the freshly imported ``hyperfir`` package.  Calls look functions up
through its modules at call time, so traced wrappers patched into those
modules are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TAPS = 4
MU_AUTO_FRAC = 0.1
RHO = 0.01
#: (algorithm, signal) pairs trained on every signature.
TRAIN_PAIRS = (("shafa", "ar4"), ("aashafa", "teacher"))
#: Signatures per dimension for the large-algebra workloads; mixed metrics so
#: that both e_k^2 = +1 and -1 enter the signs.  n = 8 is the largest
#: dimension with dense pair tables, n > 8 takes the on-the-fly paths.
ALGEBRA_SIGNATURES = {8: (4, 4), 9: (5, 4), 10: (6, 4), 12: (8, 4)}
#: left_matrix at n = 12 is a 128 MB matrix, so it stops at n = 10.
LEFT_MATRIX_MAX_N = 10
#: Output coefficients recomputed per distinct product with blade_product.
ORACLE_COEFFS = 3
ORACLE_RTOL = 1e-9

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Sizes:
    steps: int  # training rows per job
    setup_repeats: int


FULL = Sizes(steps=500, setup_repeats=5)
SMOKE = Sizes(steps=20, setup_repeats=1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainJob:
    p: int
    q: int
    algo: str
    signal: str
    seed: int

    @property
    def name(self) -> str:
        return f"Cl({self.p},{self.q})-{self.algo}-{self.signal}"


@dataclass(frozen=True)
class TrainResult:
    rows: int
    final_mse: float
    steps_to_threshold: int | None
    diverged: bool
    csv_sha: str | None
    csv_bytes: int


def train_jobs(sigs, seed: int) -> list[TrainJob]:
    """One job per signature and (algorithm, signal) pair; seeds drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        TrainJob(p, q, algo, signal, int(rng.integers(0, 2**31 - 2)))
        for p, q in sigs
        for algo, signal in TRAIN_PAIRS
    ]


def signal_spec(hf, job: TrainJob, steps: int):
    """The spec `hyperfir train` builds for the job's arguments."""
    return hf.SignalSpec(kind=job.signal, length=steps + TAPS, seed=job.seed, teacher_activation="tanh")


def filter_config(hf, job: TrainJob):
    """The config `hyperfir train` builds for the job's arguments."""
    return hf.FilterConfig(
        sig=hf.Signature(job.p, job.q),
        taps=TAPS,
        activation="tanh",
        mu_auto_frac=MU_AUTO_FRAC,
        rho=RHO,
        adaptive_amplitude=job.algo == "aashafa",
        seed=job.seed + 1,
    )


def load_references(workload: str, seed: int, steps: int):
    """(tolerance, {job name: [final_mse, steps_to_threshold]}) or (tolerance, None)."""
    data = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if steps != data["steps"]:
        return data["tolerance"], None
    return data["tolerance"], data["seeds"].get(str(seed), {}).get(workload)


class TrainWorkload:
    """Training runs, through `hyperfir train` (with a CSV) or `run_training`."""

    def __init__(self, name: str, sigs, via_cli: bool, seed: int, sizes: Sizes, out_dir: Path):
        self.name = name
        self.via_cli = via_cli
        self.steps = sizes.steps
        self.jobs = {job.name: job for job in train_jobs(sigs, seed)}
        self.out_dir = out_dir
        self.tolerance, self.references = load_references(name, seed, sizes.steps)

    def setup(self, hf):
        samples = []
        for job in self.jobs.values():
            sig = hf.Signature(job.p, job.q)
            hf.product_table(sig)
            samples.append(hf.generate_signal(signal_spec(hf, job, self.steps), sig)[0])
        return samples

    def fingerprint(self, samples) -> str:
        return _digest(*(np.stack([m.coeffs for m in seq]) for seq in samples))

    def calls(self, hf):
        return [(name, self._call(hf, job)) for name, job in self.jobs.items()]

    def _csv_path(self, job: TrainJob) -> Path:
        return self.out_dir / f"{self.name}-{job.name}.csv"

    def _call(self, hf, job: TrainJob):
        if not self.via_cli:
            config, spec = filter_config(hf, job), signal_spec(hf, job, self.steps)
            return lambda: hf.experiments.run_training(config, spec, algo=job.algo)
        argv = [
            "train", "--p", str(job.p), "--q", str(job.q), "--taps", str(TAPS),
            "--activation", "tanh", "--algo", job.algo, "--mu-auto-frac", str(MU_AUTO_FRAC),
            "--rho", str(RHO), "--steps", str(self.steps), "--signal", job.signal,
            "--seed", str(job.seed), "--out", str(self._csv_path(job)),
        ]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = hf.cli.main(argv)
            return code, out.getvalue()

        return run

    def result(self, key: str, raw) -> TrainResult:
        if not self.via_cli:
            s = raw.summary
            return TrainResult(len(raw.rows), s.final_mse, s.steps_to_threshold, s.diverged, None, 0)
        code, text = raw
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        reached = fields["steps_to_threshold"]
        csv = self._csv_path(self.jobs[key]).read_bytes()
        return TrainResult(
            rows=int(fields["rows"]),
            final_mse=float(fields["final_mse"]),
            steps_to_threshold=None if reached == "None" else int(reached),
            diverged=code != 0 or fields["diverged"] != "false",
            csv_sha=hashlib.sha256(csv).hexdigest(),
            csv_bytes=len(csv),
        )

    def units(self, result: TrainResult) -> int:
        return result.rows

    def check(self, key: str, r: TrainResult, hf) -> str | None:
        if r.diverged:
            return "run diverged"
        if r.rows != self.steps:
            return f"{r.rows} rows, expected {self.steps}"
        if not np.isfinite(r.final_mse):
            return f"final_mse {r.final_mse}"
        if self.references is None:
            return None
        ref_mse, ref_reached = self.references[key]
        tol = self.tolerance
        if abs(r.final_mse - ref_mse) > tol["final_mse_rtol"] * abs(ref_mse):
            return f"final_mse {r.final_mse!r} vs reference {ref_mse!r}"
        if (r.steps_to_threshold is None) != (ref_reached is None) or (
            ref_reached is not None and abs(r.steps_to_threshold - ref_reached) > tol["steps_to_threshold_abs"]
        ):
            return f"steps_to_threshold {r.steps_to_threshold} vs reference {ref_reached}"
        return None


# ---------------------------------------------------------------------------
# large-algebra workloads


@dataclass(frozen=True)
class AlgebraOp:
    n: int
    op: str  # "gp" | "outer" | "left" | "left_matrix" | "project"
    a: np.ndarray
    b: np.ndarray
    plane: np.ndarray | None = None  # (2, n) vectors whose outer product is b, for project

    @property
    def key(self) -> str:
        return f"n{self.n}.{self.op}"


_KEEP = {
    "gp": lambda i, j: True,
    "outer": lambda i, j: (i & j) == 0,
    "left": lambda i, j: (i & ~j) == 0,
}


class AlgebraWorkload:
    """Products at n = 8, 9, 10, 12 on dense x dense or vector x dense operands.

    ``kind`` "dense" runs the geometric, outer and left-contraction products
    plus ``left_matrix``; "sparse" runs the same products with a grade-1 left
    operand, plus ``project`` of a vector onto a 2-blade.
    """

    def __init__(self, name: str, kind: str, seed: int):
        self.name = name
        self.kind = kind
        self.seed = seed

    def _operands(self) -> list[AlgebraOp]:
        rng = np.random.default_rng(self.seed)
        ops = []
        for n in ALGEBRA_SIGNATURES:
            dim = 1 << n
            dense = rng.uniform(-1.0, 1.0, size=dim)
            if self.kind == "dense":
                left = rng.uniform(-1.0, 1.0, size=dim)
                ops += [AlgebraOp(n, op, left, dense) for op in ("gp", "outer", "left")]
                if n <= LEFT_MATRIX_MAX_N:
                    ops.append(AlgebraOp(n, "left_matrix", left, dense))
            else:
                vector = _vector(rng.uniform(-1.0, 1.0, size=n))
                ops += [AlgebraOp(n, op, vector, dense) for op in ("gp", "outer", "left")]
                plane = _plane(rng, n)
                ops.append(AlgebraOp(n, "project", _vector(rng.uniform(-1.0, 1.0, size=n)), _blade(plane), plane))
        return ops

    def setup(self, hf):
        for p, q in ALGEBRA_SIGNATURES.values():
            hf.product_table(hf.Signature(p, q))
        return self._operands()

    def fingerprint(self, ops) -> str:
        return _digest(*(x for op in ops for x in (op.a, op.b)))

    def calls(self, hf):
        self.ops = {op.key: op for op in self._operands()}
        return [(key, self._call(hf, op)) for key, op in self.ops.items()]

    def _call(self, hf, op: AlgebraOp):
        sig = hf.Signature(*ALGEBRA_SIGNATURES[op.n])
        if op.op == "left_matrix":
            table = hf.product_table(sig)
            return lambda: table.left_matrix(op.a)
        a, b = hf.Multivector(sig, op.a), hf.Multivector(sig, op.b)
        if op.op == "gp":
            return lambda: a * b
        if op.op == "project":
            return lambda: hf.geometry.project(a, b)
        fn = {"outer": "outer_product", "left": "left_contraction"}[op.op]
        return lambda: getattr(hf.geometry, fn)(a, b)

    def result(self, key: str, raw) -> np.ndarray:
        return raw if isinstance(raw, np.ndarray) else raw.coeffs

    def units(self, result) -> int:
        return 1

    def check(self, key: str, out: np.ndarray, hf) -> str | None:
        op = self.ops[key]
        sig = hf.Signature(*ALGEBRA_SIGNATURES[op.n])
        if not np.all(np.isfinite(out)):
            return "non-finite output"
        if op.op == "project":
            return _check_projection(op, out)
        rng = np.random.default_rng([self.seed, op.n])
        picks = rng.choice(sig.dim, size=ORACLE_COEFFS, replace=False)
        if op.op == "left_matrix":
            # column j holds a[k ^ j] sign(k ^ j, j) in row k
            for j in picks:
                for k in range(sig.dim):
                    sign, _ = hf.blade_product(k ^ int(j), int(j), sig)
                    if out[k, j] != sign * op.a[k ^ int(j)]:
                        return f"left_matrix[{k}, {j}] = {out[k, j]!r}"
            return None
        keep = _KEEP[op.op]
        for k in picks:
            k = int(k)
            expect, scale = 0.0, 0.0
            for i in np.flatnonzero(op.a):
                i = int(i)
                j = i ^ k
                if keep(i, j):
                    sign, _ = hf.blade_product(i, j, sig)
                    term = op.a[i] * op.b[j]
                    expect += sign * term
                    scale += abs(term)
            if abs(out[k] - expect) > ORACLE_RTOL * max(scale, 1.0):
                return f"coefficient {k}: {out[k]!r} vs blade_product sum {expect!r}"
        return None


def _vector(components: np.ndarray) -> np.ndarray:
    n = len(components)
    out = np.zeros(1 << n)
    out[1 << np.arange(n)] = components
    return out


def _metric(n: int) -> np.ndarray:
    p, q = ALGEBRA_SIGNATURES[n]
    return np.array([1.0] * p + [-1.0] * q)


def _plane(rng, n: int) -> np.ndarray:
    """Two vectors spanning a plane with a well-conditioned metric Gram matrix."""
    g = _metric(n)
    while True:
        uv = rng.uniform(-1.0, 1.0, size=(2, n))
        if abs(np.linalg.det(uv @ (g[:, None] * uv.T))) > 0.1 * np.prod(np.sum(uv * uv, axis=1)):
            return uv


def _blade(uv: np.ndarray) -> np.ndarray:
    """Coefficients of the 2-blade u ^ v on the blades e_i e_j, i < j."""
    u, v = uv
    n = len(u)
    out = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            out[(1 << i) | (1 << j)] = u[i] * v[j] - u[j] * v[i]
    return out


def _check_projection(op: AlgebraOp, out: np.ndarray) -> str | None:
    # Metric-orthogonal projection onto span(u, v): P(a) = sum_ij b_i G^-1_ij (b_j . a)
    # with G_ij = b_i . b_j under the signature's metric.
    vec = 1 << np.arange(op.n)
    g = _metric(op.n)
    basis = op.plane
    coef = np.linalg.solve(basis @ (g[:, None] * basis.T), basis @ (g * op.a[vec]))
    expect = coef @ basis
    if np.any(np.delete(out, vec) != 0.0):
        return "projection has non-vector parts"
    if np.max(np.abs(out[vec] - expect)) > 1e-8 * max(np.linalg.norm(op.a), 1.0):
        return f"projection {out[vec]} vs metric projection {expect}"
    return None


WORKLOADS = ("train-lowdim", "train-wide", "algebra-dense", "algebra-sparse")


def make_workload(name: str, seed: int, sizes: Sizes, out_dir: Path):
    if name == "train-lowdim":
        return TrainWorkload(name, [(0, 1), (0, 2), (0, 3), (3, 0)], True, seed, sizes, out_dir)
    if name == "train-wide":
        return TrainWorkload(name, [(4, 1), (0, 6)], False, seed, sizes, out_dir)
    if name == "algebra-dense":
        return AlgebraWorkload(name, "dense", seed)
    if name == "algebra-sparse":
        return AlgebraWorkload(name, "sparse", seed)
    raise ValueError(f"unknown workload {name!r}")
