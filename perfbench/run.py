"""Wall-clock benchmark of the FL engines.

Runs one named workload (or ``all``) through the program's public engines
for a fixed measuring time, checks the outputs, and prints every metric by
name and unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``--trace 0`` measures the set-up and end-to-end metrics on untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions of
the same seed and reports the per-layer metrics of the traced ones plus
the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload sync-cnn-fmnist --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each repetition runs in a fresh process (``worker.py``), so nothing
memoised carries over and its peak RSS is its own.  BLAS threads are
pinned to one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: BLAS threads per repetition (at or below the machine's core count).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

import numpy as np  # noqa: E402

import stats  # noqa: E402

WORKLOAD_NAMES = (
    "sync-cnn-fmnist",
    "sync-cnn-cifar10",
    "sync-mlp-100clients",
    "async-mlp-1m-chaos",
)

#: End-to-end metrics printed for a plain run: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "round_s_min": "s",
    "train_samples_per_s": "samples/s",
    "round_s_p50": "s",
    "round_s_p90": "s",
    "time_to_target_s": "s",
    "final_accuracy": "fraction",
    "updates_per_s": "updates/s",
    "checkpoint_s_p50": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}

#: A repetition that runs longer than this is killed and counted as failed.
REPETITION_TIMEOUT_S = 150.0


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode.

    These, and only these, go into the final JSON line; every workload
    reports them.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s_p" in name:
        return "s"
    if name.endswith("_share"):
        return "fraction"
    if name.endswith("bytes_per_save"):
        return "bytes"
    return "count"


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_seconds(repeats: int = 5) -> float:
    """Median time of a fixed numpy loop, to compare machines on one scale.

    Recorded beside the metrics; it is not a metric and is not gated.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = a
        for _ in range(40):
            acc = np.tanh(acc @ b * 0.01) + a
        float(acc.sum())  # consume the result inside the timed region
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def environment_stamp(seed: int) -> Dict[str, Any]:
    import platform

    from repro.autograd import get_default_dtype

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "dtype": get_default_dtype().name,
        "seed": seed,
        "calibration_s": calibration_seconds(),
    }


def run_repetition(workload: str, seed: int, mode: str, index: int) -> Dict[str, Any]:
    """One repetition in a fresh worker process; failures are returned."""
    workdir = OUT / "work" / f"{workload}-s{seed}-{mode}-{index}"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=REPETITION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REPETITION_TIMEOUT_S:.0f} s", "mode": mode}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"worker exited {proc.returncode}: {tail}", "mode": mode}
    return json.loads(lines[-1])


def failed_checks(rep: Dict[str, Any]) -> List[str]:
    if "error" in rep:
        return [rep["error"]]
    return [name for name, ok in rep.get("checks", {}).items() if not ok]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Repeat until the measuring time is spent; never start a repetition
    that is predicted to end past it, but always run at least two, so the
    same-seed checks have something to compare."""
    started = time.perf_counter()
    deadline = started + seconds
    reps: List[Dict[str, Any]] = []
    modes = ["plain"]
    while True:
        if trace:  # alternate which side of the pair runs first
            modes = ["plain", "traced"] if len(reps) % 4 == 0 else ["traced", "plain"]
        begun = time.perf_counter()
        for mode in modes:
            reps.append(run_repetition(workload, seed, mode, len(reps)))
        took = time.perf_counter() - begun
        if len(reps) >= 2 and time.perf_counter() + took > deadline:
            break
    return {"reps": reps, "elapsed_s": time.perf_counter() - started}


def end_to_end(plain: List[Dict[str, Any]]):
    """End-to-end metrics of the untraced repetitions, with sample counts.

    ``setup_s`` and ``round_s_min`` are the fastest build and the fastest
    server version of the run.  A shared machine can only add time to a
    measurement, and it slows its cores for stretches of seconds to
    minutes, so the fastest of many samples is what stays put from run to
    run.  The per-version medians (``round_s_p50`` and the rates) and the
    per-repetition medians (the rest) move with those slow stretches;
    they are printed, not gated.
    """
    seconds = [s for rep in plain for s in rep["versions"]["seconds"]]
    samples = [n for rep in plain for n in rep["versions"]["samples"]]
    updates = [n for rep in plain for n in rep["versions"]["updates"]]
    builds = [s for rep in plain for s in rep["setup_seconds"]]
    e2e: Dict[str, float] = {"setup_s": min(builds), "round_s_min": min(seconds)}
    counts = {
        "setup_s": f"fastest of {len(builds)} builds",
        "round_s_min": f"fastest of {len(seconds)} versions",
    }
    per_version = {
        "round_s_p50": seconds,
        "train_samples_per_s": [n / s for n, s in zip(samples, seconds)],
        "updates_per_s": [n / s for n, s in zip(updates, seconds)],
    }
    for name, values in per_version.items():
        e2e[name] = float(np.median(values))
        counts[name] = f"median of {len(values)} versions"
    for name in E2E_UNITS:
        values = [rep["e2e"][name] for rep in plain if name in rep["e2e"]]
        if values:
            e2e[name] = float(np.median(values))
            counts[name] = f"median of {len(values)} repetitions"
    # The tail only where at least 10 of the run's versions lie beyond it.
    p90 = stats.percentile_if_reportable(seconds, 90.0)
    if p90 is not None:
        e2e["round_s_p90"] = p90
        counts["round_s_p90"] = f"over {len(seconds)} versions"
    return e2e, counts


def summarize_workload(workload: str, seed: int, trace: bool, reps: List[Dict[str, Any]]):
    """Medians over repetitions, plus every failed check by name."""
    problems: List[str] = []
    failed = 0
    for rep in reps:
        bad = failed_checks(rep)
        if bad:
            failed += 1
            problems.extend(f"{rep.get('mode')}: {b}" for b in bad)
    trained = [rep for rep in reps if "error" not in rep]
    # Same seed, so every repetition (traced or not) must train identically.
    if len({json.dumps(rep["accuracies"]) for rep in trained}) > 1:
        problems.append("accuracy histories differ between repetitions of one seed")
    if len({rep["params_sha256"] for rep in trained}) > 1:
        problems.append("final params differ between repetitions of one seed")

    plain = [rep for rep in trained if rep["mode"] == "plain"]
    traced = [rep for rep in trained if rep["mode"] == "traced"]
    e2e, counts = end_to_end(plain) if plain else ({}, {})
    layers: Dict[str, float] = {}
    if traced:
        names = sorted({name for rep in traced for name in rep["layers"]})
        for name in names:
            values = [rep["layers"][name] for rep in traced if name in rep["layers"]]
            layers[name] = float(np.median(values))
        if plain:
            # Median wall seconds per version, traced over untraced.
            untraced = np.median([s for rep in plain for s in rep["versions"]["seconds"]])
            traced_s = np.median([s for rep in traced for s in rep["versions"]["seconds"]])
            layers["trace.overhead_share"] = float(traced_s / untraced - 1.0)
    return {
        "workload": workload,
        "seed": seed,
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "e2e": e2e,
        "counts": counts,
        "layers": layers,
    }


def print_summary(summary: Dict[str, Any], trace: bool) -> None:
    name = summary["workload"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"== {name} (seed {summary['seed']}, {attempted} repetitions) ==")
    if not trace:
        for metric, unit in E2E_UNITS.items():
            if metric in summary["e2e"]:
                n = summary["counts"][metric]
                print(f"  {metric:<24} {summary['e2e'][metric]:>14.6g} {unit:<10} ({n})")
    else:
        for metric, value in summary["layers"].items():
            print(f"  {metric:<32} {value:>14.6g} {layer_unit(metric)}")
    print(f"  {'error_rate':<24} {failed / attempted:>14.6g} fraction ({failed}/{attempted})")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Wall-clock benchmark of the FL engines.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through subprocess.run, which kills and
    # reaps the running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Refuse early, before any result, when the program is not present.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    declared = declared_metrics(trace)
    stamp = environment_stamp(args.seed)
    print("environment: " + json.dumps(stamp, sort_keys=True))
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        run = measure(workload, args.seed, args.seconds, trace)
        summary = summarize_workload(workload, args.seed, trace, run["reps"])
        summary["elapsed_s"] = run["elapsed_s"]
        summary["environment"] = stamp
        print_summary(summary, trace)
        summaries.append(summary)
        OUT.mkdir(exist_ok=True)
        tag = "trace" if trace else "e2e"
        with open(OUT / f"result-{workload}-s{args.seed}-{tag}.json", "w") as handle:
            json.dump({"summary": summary, "reps": run["reps"]}, handle, indent=1)

    metrics: Dict[str, Dict[str, Any]] = {}
    correct = True
    for summary in summaries:
        values = summary["layers"] if trace else summary["e2e"]
        prefix = "" if len(summaries) == 1 else summary["workload"] + "/"
        for name, unit in declared.items():
            if name not in values:
                correct = False
                print(f"  CHECK FAILED: {summary['workload']}: no value for {name}")
                continue
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        correct = correct and not summary["problems"] and summary["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
