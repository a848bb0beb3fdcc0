"""Benchmark of hyperfir: training throughput, large-n algebra, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload train-lowdim --seed 1 --seconds 20 --trace 0

One process is one closed-loop caller of the public API, with BLAS/OpenMP
pinned to one thread.  It imports hyperfir from ``src/`` of the checkout
(nothing is installed), sets the workload up ``setup_repeats`` times from a
fresh import, then runs whole cycles of the workload's calls until
``--seconds`` have passed, and checks every output untimed.

Shared hosts change speed by up to 2x within a minute.  So a fixed
calibration kernel is timed right before every timed call and set-up, and
each time is reported at the reference speed: measured time x
``CAL_NOMINAL_S`` / calibration time.  The raw medians go to the details line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it holds the machine facts, per-call medians and any failures.
``--smoke`` shrinks the training jobs for the benchmark's own test.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the benchmark is a single
# caller, and pool threads would make timings depend on the machine's load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# Every import compiles from source, as in a fresh checkout, and nothing is
# written next to the sources.
sys.dont_write_bytecode = True

from tracing import FUNCTIONS, METHODS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ALGEBRA_SIGNATURES,
    FULL,
    SMOKE,
    WORKLOADS,
    AlgebraWorkload,
    TrainWorkload,
    make_workload,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Share of a traced run's seconds spent untraced, as the overhead baseline.
UNTRACED_SHARE = 1.0 / 3.0
BUILD_REPEATS = 5
#: Time of `calibration_s`'s kernel at the reference speed: its median on the
#: 2-vCPU 2.0 GHz Xeon VM the benchmark was defined on.
CAL_NOMINAL_S = 1.75e-3
_CAL_BITS = np.arange(4096, dtype=np.uint64)
_CAL_SMALL = np.linspace(-1.0, 1.0, 16)

#: Spans whose calls per training row are reported; all but Multivector.__init__
#: also report their self time.
COUNTED = ("filtering.window_energy", "filtering.net_input", "algebra.multivector_init", "algebra.multiply")
SELF_TIMED = [span for *_, span in FUNCTIONS + METHODS if span != "algebra.multivector_init"]


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of interpreted code, small and 4096-long numpy ops."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += int(np.bitwise_count((_CAL_BITS >> np.uint64(i % 11)) & np.uint64(i)).sum())
        acc += float(np.tanh(_CAL_SMALL * i)[3])
        acc += sum(k * 0.5 for k in range(40))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CAL_NOMINAL_S / calibration


class NotACheckout(Exception):
    pass


def import_hyperfir():
    """Fresh import of hyperfir and its CLI from the checkout's sources: the cold start."""
    for name in [m for m in sys.modules if m == "hyperfir" or m.startswith("hyperfir.")]:
        del sys.modules[name]
    try:
        hf = importlib.import_module("hyperfir")
    except ModuleNotFoundError as exc:
        raise NotACheckout(f"cannot import hyperfir from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(hf.__file__).resolve().parents:
        raise NotACheckout(f"hyperfir was imported from {hf.__file__}, not from {SRC}")
    importlib.import_module("hyperfir.cli")
    return hf


class Ledger:
    """Outcome of every call: the first result per key and the failures."""

    def __init__(self, workload, hf):
        self.workload = workload
        self.hf = hf
        self.first = {}
        self.calls = defaultdict(int)  # successful calls per key that matched the first result
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, key: str, raw) -> None:
        result = self.workload.result(key, raw)
        if key not in self.first:
            self.first[key] = result
        elif not _same(result, self.first[key]):
            self.failures.append(f"{key}: output differs from the first call's")
            return
        self.calls[key] += 1

    def call(self, key: str, fn) -> float | None:
        """One timed call; returns its seconds, or None if it raised or disagreed."""
        self.attempted += 1
        before = len(self.failures)
        start = time.perf_counter()
        try:
            raw = fn()
        except Exception as exc:  # a failing call is counted and the run goes on
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.add(key, raw)
        return elapsed if len(self.failures) == before else None

    def check(self, calls) -> None:
        """Repeat once any key that ran once, then check each first result."""
        for key, fn in calls:
            if self.calls[key] == 1:
                self.call(key, fn)
        for key, result in self.first.items():
            problem = self.workload.check(key, result, self.hf)
            if problem:
                # every call that matched the first result shares its error
                self.failures.extend([f"{key}: {problem}"] * self.calls[key])


def _same(a, b) -> bool:
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b


class Phase:
    """Call times of whole cycles run for at least a given number of seconds."""

    def __init__(self, ledger: Ledger, calls, seconds: float):
        self.times = defaultdict(list)  # at reference speed
        self.raw = defaultdict(list)
        self.calibrations = []
        self.walls = []  # summed call seconds per cycle, at reference speed
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start < seconds:
            wall = 0.0
            for key, fn in calls:
                calibration = calibration_s()
                elapsed = ledger.call(key, fn)
                if elapsed is not None:
                    self.calibrations.append(calibration)
                    self.raw[key].append(elapsed)
                    self.times[key].append(at_reference_speed(elapsed, calibration))
                    wall += self.times[key][-1]
            self.walls.append(wall)

    def median_s(self, key: str) -> float:
        return statistics.median(self.times[key])


def ops_per_s(ledger: Ledger, phase: Phase) -> float:
    """Work units (training rows or product calls) per second of per-key median call time."""
    keys = [k for k in phase.times if k in ledger.first]
    if not keys:  # every call failed
        return 0.0
    units = sum(ledger.workload.units(ledger.first[k]) for k in keys)
    return units / sum(phase.median_s(k) for k in keys)


def per_layer(workload, hf, ledger: Ledger, phase: Phase, spans: dict, overhead: float) -> dict:
    cycles = len(phase.walls)
    train = isinstance(workload, TrainWorkload)
    rows = sum(workload.units(ledger.first[k]) * len(t) for k, t in phase.times.items()) if train else 0
    speed = at_reference_speed(1.0, statistics.median(phase.calibrations))
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (spans.get(name, (0, 0.0))[1] * speed / cycles, "s")
    for name in COUNTED:
        metrics[f"{name}.calls_per_step"] = (spans.get(name, (0, 0.0))[0] / rows if rows else 0.0, "calls/step")
    csv_bytes = sum(r.csv_bytes for r in ledger.first.values()) if train else 0
    metrics["experiments.emit_csv.bytes"] = (csv_bytes, "bytes")
    for n, (p, q) in ALGEBRA_SIGNATURES.items():
        for kind in ("dense", "sparse"):
            on = isinstance(workload, AlgebraWorkload) and workload.kind == kind and f"n{n}.gp" in phase.times
            metrics[f"algebra.multiply.n{n}.{kind}_ms"] = (phase.median_s(f"n{n}.gp") * 1e3 if on else 0.0, "ms")
        builds = []
        if not train:
            for _ in range(BUILD_REPEATS):
                calibration = calibration_s()
                start = time.perf_counter()
                hf.algebra.ProductTable(hf.Signature(p, q))
                builds.append(at_reference_speed(time.perf_counter() - start, calibration))
        metrics[f"algebra.product_table.n{n}.build_ms"] = (statistics.median(builds) * 1e3 if builds else 0.0, "ms")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimum sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, sizes, OUT)

    setup_s, setup_raw_s, fingerprints = [], [], set()
    for _ in range(sizes.setup_repeats):
        calibration = calibration_s()
        start = time.perf_counter()
        hf = import_hyperfir()
        products = workload.setup(hf)
        setup_raw_s.append(time.perf_counter() - start)
        setup_s.append(at_reference_speed(setup_raw_s[-1], calibration))
        fingerprints.add(workload.fingerprint(products))

    ledger = Ledger(workload, hf)
    ledger.attempted += sizes.setup_repeats
    if len(fingerprints) != 1:
        ledger.failures.append("setup: repeated set-ups produced different inputs")
    calls = workload.calls(hf)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_facts()}

    if args.trace:
        plain = Phase(ledger, calls, args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            phase = Phase(ledger, calls, args.seconds * (1.0 - UNTRACED_SHARE))
        finally:
            tracer.uninstall()
        overhead = statistics.median(phase.walls) / statistics.median(plain.walls) - 1.0
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        phase = Phase(ledger, calls, args.seconds)
    ledger.check(calls)

    if args.trace:
        metrics = per_layer(workload, hf, ledger, phase, tracer.summary(), overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (ops_per_s(ledger, phase), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = len(ledger.failures)
    details.update(
        cycles=len(phase.walls),
        setup_raw_s=setup_raw_s,
        calibration_median_s=statistics.median(phase.calibrations),
        median_raw_call_s={k: statistics.median(t) for k, t in phase.raw.items()},
        reference_checked=getattr(workload, "references", None) is not None,
        error_rate=failed / ledger.attempted,
        failures=ledger.failures[:20],
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except NotACheckout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
