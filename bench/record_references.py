"""Record the training references that the benchmark checks its runs against.

    python3 bench/record_references.py --seeds 0-99

For every seed and training workload this runs each job once through
``run_training`` at full size and stores its final MSE and steps to
threshold in ``references.json``; existing seeds are kept.  The
references pin the training results of the code they were recorded with,
within the tolerance stored beside them, so a faster rewrite must
reproduce them.
"""

import argparse
import json
import sys

# run pins BLAS/OpenMP to one thread before numpy loads, so the teacher
# bisection rounds as it does in the benchmark.
from run import ROOT, SRC
from workloads import FULL, REFERENCES, filter_config, make_workload, signal_spec

TOLERANCE = {"final_mse_rtol": 1e-6, "steps_to_threshold_abs": 2}


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive range such as 0-99")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import hyperfir as hf

    data = {"tolerance": TOLERANCE, "steps": FULL.steps, "seeds": {}}
    if REFERENCES.exists():
        data = json.loads(REFERENCES.read_text(encoding="utf-8"))
        if data["steps"] != FULL.steps:
            raise SystemExit(f"{REFERENCES} holds {data['steps']}-step references, not {FULL.steps}")
    for seed in args.seeds:
        entry = {}
        for name in ("train-lowdim", "train-wide"):
            workload = make_workload(name, seed, FULL, ROOT)
            entry[name] = {}
            for key, job in workload.jobs.items():
                report = hf.run_training(filter_config(hf, job), signal_spec(hf, job, FULL.steps), algo=job.algo)
                s = report.summary
                if s.diverged or len(report.rows) != FULL.steps:
                    raise SystemExit(f"seed {seed} {key}: diverged or short run; choose other jobs")
                entry[name][key] = [s.final_mse, s.steps_to_threshold]
        data["seeds"][str(seed)] = entry
        print(f"seed {seed} recorded", flush=True)
        REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
