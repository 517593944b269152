"""Benchmark of the dbsadam toolkit, measured from outside its code.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see workloads.py) as a closed loop for about `--seconds`
seconds, checks every unit's outputs, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`. It exits with 1
when a check fails and with 2 when the program cannot be loaded.

`--trace 0` gives the end-to-end metrics:
  setup_s       imports, then config load and warm-up, up to where the first
                unit starts; config load and warm-up are repeated and count
                with their median
  wall_s        median wall time of one unit
  epochs_per_s  training: sum of epochs_run over sum of RunResult.wall_clock;
                resampling: resample passes per second (one per unit)
  peak_rss_mb   peak resident memory of the measuring process
  accuracy_min  training: lowest test accuracy over the unit's runs;
                resampling: smallest class count over the largest after
                oversampling and before ENN cleaning, the balance the
                resampler exists to reach
  success_rate  units that passed every check over units attempted

`--trace 1` alternates untraced units and units run with the tracer's
wrappers installed, and reports the per-layer metrics of the traced units
(calls and self times per unit) plus trace.overhead_ratio. Spans and a run
record with digests of every unit's outputs go to perfbench/results/.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: on two cores a second thread was no faster at paper shape
# and doubled CPU time. Set before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5


class ProgramMissing(RuntimeError):
    """The checkout does not hold the dbsadam sources the benchmark measures."""


def load_program():
    """Import dbsadam from this checkout's src/ and never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dbsadam", "__init__.py")):
        raise ProgramMissing(f"no dbsadam package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dbsadam

    if not os.path.abspath(dbsadam.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"dbsadam imported from {dbsadam.__file__}, not {SRC}")
    import workloads

    return workloads


def setup(name: str, seed: int):
    """Everything before the first unit: imports, config load, warm-up.

    Returns the set-up time with the rest: the imports since this script
    started, plus the median of SETUP_REPEATS config loads and warm-ups.
    """
    workloads = load_program()
    imported = time.perf_counter()
    os.makedirs(RESULTS, exist_ok=True)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(workloads.WORKLOADS[name], ROOT, seed, RESULTS)
        sizes = workloads.warm_up(inputs)
        prepare_s.append(time.perf_counter() - t0)
    setup_s = imported - _STARTED + statistics.median(prepare_s)
    return workloads, inputs, sizes, setup_s


def run_loop(workloads, inputs, budget_s: float, probe, tracer=None) -> list[dict]:
    """Units back to back until the next one would end past the budget.

    With a tracer, units alternate untraced and traced, so drift in the
    machine's speed falls on both sides of trace.overhead_ratio alike; the
    tracer's wrappers are installed only around traced units.
    """
    units: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        record = {"failures": [], "traced": traced}
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.unit = len(units)
                tracer.install()
                try:
                    output = tracer.span("unit", workloads.run_unit, inputs)
                finally:
                    tracer.restore()
            else:
                output = workloads.run_unit(inputs)
        except Exception:  # a unit that raises is a failed unit, reported below
            record["failures"].append(traceback.format_exc())
            record["wall_s"] = time.perf_counter() - t0
            units.append(record)
            probe.take()
            return units
        record["wall_s"] = time.perf_counter() - t0
        enn_calls = probe.take()
        record["failures"] += workloads.check(inputs, output, enn_calls)
        record["digest"] = workloads.digest(output)
        record["summary"] = workloads.summary(output, enn_calls)
        if traced and output.rows_in:
            tracer.count("resampling.rows_in", output.rows_in)
            tracer.count("resampling.rows_out", output.resampled.n_samples)
        del output  # keep one unit's outputs alive at a time, for peak_rss_mb
        units.append(record)
        elapsed = time.perf_counter() - started
        both_sides = tracer is None or len(units) >= 2
        if both_sides and elapsed + statistics.median(u["wall_s"] for u in units) > budget_s:
            return units


def end_to_end(units: list[dict], setup_s: float) -> dict[str, float]:
    done = [u["summary"] for u in units if "summary" in u]
    if done and "epochs" in done[0]:
        epochs_per_s = sum(s["epochs"] for s in done) / sum(s["train_s"] for s in done)
        accuracy_min = min(s["accuracy_min"] for s in done)
    elif done:
        epochs_per_s = len(done) / sum(u["wall_s"] for u in units if "summary" in u)
        accuracy_min = min(s["balance"] for s in done)
    else:
        epochs_per_s = accuracy_min = 0.0
    failed = sum(1 for u in units if u["failures"])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "epochs_per_s": epochs_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "accuracy_min": accuracy_min,
        "success_rate": (len(units) - failed) / len(units),
    }


UNITS = {"epochs_per_s": "1/s", "accuracy_min": "fraction", "success_rate": "fraction",
         "models.gflop": "GFLOP", "harness.report_bytes": "B"}
SUFFIX_UNITS = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "fraction"))


def unit_of(name: str) -> str:
    """The unit a metric is reported in, from its name."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    workloads, inputs, sizes, setup_s = setup(name, seed)
    import tracer as tracing

    probe = workloads.EnnProbe()
    snapshot = tracing.snapshot()
    spans = tracing.Tracer() if trace else None
    probe.install()
    try:
        units = run_loop(workloads, inputs, seconds, probe, spans)
    finally:
        probe.restore()

    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    run_failures = []
    if not tracing.is_restored(snapshot):
        run_failures.append("a wrapped dbsadam attribute was not restored")
    if len({u["digest"] for u in units if "digest" in u}) > 1:
        run_failures.append("repeated units, traced or not, gave different outputs")
    for u in units:
        u["failures"] += run_failures

    failed = sum(1 for u in units if u["failures"])
    if trace:
        values = tracing.layer_metrics(spans, max(1, len(traced)))
        values["trace.overhead_ratio"] = (
            statistics.median(u["wall_s"] for u in traced)
            / statistics.median(u["wall_s"] for u in plain) - 1.0
            if traced and plain else 0.0
        )
    else:
        values = end_to_end(units, setup_s)
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": {**sizes, "data_seed": inputs.config.data_seed, "run_seeds": list(inputs.run_seeds)},
        "units": [
            {key: u.get(key) for key in ("wall_s", "traced", "digest", "failures")}
            for u in units
        ],
    }
    if trace:
        record["layer_shares"] = tracing.layer_shares(spans)
        spans.write(os.path.join(RESULTS, f"{name}-seed{seed}.spans.jsonl"))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload not in load_program().WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for unit in record["units"]:
        for failure in unit["failures"]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
