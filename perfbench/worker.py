"""One benchmark repetition, run in a fresh process.

``run.py`` starts this script once per repetition so that every repetition
starts fresh (no memoised environment or result survives from a previous one)
and so that the process's peak resident set size belongs to that
repetition alone.  The last line of standard output is one JSON object
with the repetition's measurements, output checks and accuracy history.

An untraced repetition first times ``SETUP_REPEATS`` builds of the
workload's engine in a row, each from scratch, for ``setup_s``, and trains
the last one.

Usage (normally invoked by ``run.py``)::

    python3 perfbench/worker.py --workload sync-cnn-fmnist --seed 1 \
        --mode plain --workdir .perfbench_out/work
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stats  # noqa: E402
from tracing import Patches, defining_class, subtree, summarize, wrap, write_spans  # noqa: E402
from workloads import WORKLOADS, clear_dir, evaluated_rounds  # noqa: E402

from repro.experiments import runner  # noqa: E402
from repro.federation import coordinator as coordinator_mod  # noqa: E402
from repro.federation.coordinator import AsyncCoordinator  # noqa: E402
from repro.federation.registry import ClientRegistry  # noqa: E402
from repro.fl import batched as batched_mod  # noqa: E402
from repro.fl import checkpoint as checkpoint_mod  # noqa: E402
from repro.fl import client as client_mod  # noqa: E402
from repro.fl import simulation as simulation_mod  # noqa: E402
from repro.fl.batched import BatchedCohortExecutor  # noqa: E402
from repro.fl.client import Client  # noqa: E402
from repro.fl.history import TrainingHistory  # noqa: E402
from repro.fl.server import Server  # noqa: E402
from repro.fl.simulation import FederatedSimulation  # noqa: E402
from repro.network.model import NetworkModel  # noqa: E402
from repro.nn.module import Module  # noqa: E402
from repro.telemetry.profiler import OpProfiler  # noqa: E402
from repro.telemetry.spans import Tracer  # noqa: E402

#: OpProfiler rows reported as ``nn.<row>.fwd_s`` / ``nn.<row>.bwd_s``.
NN_ROWS = ("Conv2d", "MaxPool2d", "Linear")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class Probes:
    """Light timers and counters installed in *every* repetition.

    They cost one clock read or one addition per server version, save or
    client, so plain and traced repetitions carry the same probes:

    - a version clock (``TrainingHistory.append`` ends every sync round and
      async flush in both engines), which also marks how many clients had
      been materialized by then;
    - checkpoint save timing and size, plus a copy of the mid-run
      checkpoint for the resume check;
    - the summed batch size of clients the async registry materializes.
    """

    def __init__(self, job) -> None:
        self.job = job
        self.version_stamps: List[float] = []
        self.batch_marks: List[int] = []
        self.save_seconds: List[float] = []
        self.save_bytes: List[int] = []
        self.materialized_batch = 0
        self.materialized = 0

    def install(self, patches: Patches) -> None:
        append = TrainingHistory.append

        def timed_append(history, record):
            append(history, record)
            self.version_stamps.append(time.perf_counter())
            self.batch_marks.append(self.materialized_batch)

        patches.replace(TrainingHistory, "append", timed_append)

        if self.job.checkpoint_dir is not None:
            save = checkpoint_mod.save_simulation

            def timed_save(simulation, directory):
                started = time.perf_counter()
                out = save(simulation, directory)
                self.save_seconds.append(time.perf_counter() - started)
                self.save_bytes.append(dir_bytes(directory))
                if simulation.server.state.round == self.job.mid_round:
                    clear_dir(self.job.mid_dir)
                    shutil.copytree(directory, self.job.mid_dir)
                return out

            patches.replace(checkpoint_mod, "save_simulation", timed_save)

        materialize = ClientRegistry.materialize

        def counted_materialize(registry, client_id):
            client = materialize(registry, client_id)
            self.materialized += 1
            self.materialized_batch += client.batch_size
            return client

        patches.replace(ClientRegistry, "materialize", counted_materialize)


class Loss(Module):
    """Routes a training loss through ``Module.__call__``.

    The op profiler then attributes the loss's forward and backward ops to
    a ``Loss`` row of their own instead of the catch-all row for tensors
    made outside any module (which, in a batched round, also holds the
    batched program's backward).
    """

    def __init__(self, fn) -> None:
        super().__init__()
        object.__setattr__(self, "fn", fn)

    def forward(self, *args, **kwargs):
        return self.fn(*args, **kwargs)


def install_layer_spans(tracer: Tracer, patches: Patches, strategy) -> None:
    """Wrap each layer's public entry points where their callers bind them."""

    def span(owner, attr, name, attrs=None):
        wrap(tracer, patches, owner, attr, name, attrs)

    span(FederatedSimulation, "run", "engine.run")
    span(AsyncCoordinator, "run", "coordinator.run")
    span(Client, "local_round", "client.local_round")
    span(
        BatchedCohortExecutor,
        "run_cohort",
        "batched.run_cohort",
        attrs=lambda self, strategy, params, jobs, *a, **k: {"jobs": len(jobs)},
    )
    cls = type(strategy)
    span(defining_class(cls, "local_direction"), "local_direction", "strategy.local_direction")
    span(
        defining_class(cls, "batched_local_directions"),
        "batched_local_directions",
        "strategy.local_direction",
    )
    span(defining_class(cls, "active_clients"), "active_clients", "strategy.active_clients")
    span(Server, "run_aggregation", "server.aggregate")
    # ``evaluate`` is imported by name into both engines.
    span(simulation_mod, "evaluate", "evaluate")
    span(coordinator_mod, "evaluate", "evaluate")
    for module, attr in ((client_mod, "cross_entropy"), (batched_mod, "batched_cross_entropy")):
        patches.replace(module, attr, Loss(getattr(module, attr)))
    span(checkpoint_mod, "save_simulation", "checkpoint.save")
    span(ClientRegistry, "materialize", "federation.materialize")
    span(NetworkModel, "outcome", "network.outcome")


def params_digest(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params).tobytes()).hexdigest()


def layer_metrics(
    tracer: Tracer, root_name: str, profiler: OpProfiler, result, probes: Probes
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (self times in seconds)."""
    root = next(s for s in tracer.finished if s.name == root_name and s.parent_id is None)
    spans = subtree(tracer.finished, root)
    rows = summarize(spans)
    out: Dict[str, float] = {}

    def self_s(name: str) -> float:
        row = rows.get(name)
        return row.self_seconds if row else 0.0

    for label in NN_ROWS:
        stat = profiler.stats.get(label)
        if stat is not None:
            out[f"nn.{label}.fwd_s"] = stat.forward_seconds
            out[f"nn.{label}.bwd_s"] = stat.backward_seconds
    loss = profiler.stats.get("Loss")
    out["nn.loss_s"] = loss.total_seconds if loss else 0.0

    local = rows.get("client.local_round")
    if local is not None:
        out["client.local_round_s_p50"] = float(np.median(local.durations))
        p90 = stats.percentile_if_reportable(local.durations, 90.0)
        if p90 is not None:
            out["client.local_round_s_p90"] = p90
    out["client.local_round_calls"] = local.calls if local else 0

    cohorts = [s for s in spans if s.name == "batched.run_cohort"]
    if cohorts:
        cohort_ids = {s.span_id for s in cohorts}
        fallbacks = sum(
            1 for s in spans if s.name == "client.local_round" and s.parent_id in cohort_ids
        )
        out["batched.run_cohort_s"] = self_s("batched.run_cohort")
        out["batched.fallback_share"] = fallbacks / sum(s.attributes["jobs"] for s in cohorts)

    out["strategy.local_direction_s"] = self_s("strategy.local_direction")
    active = rows.get("strategy.active_clients")
    out["strategy.active_clients_s"] = self_s("strategy.active_clients")
    out["strategy.active_clients_calls"] = active.calls if active else 0
    out["server.aggregate_s"] = self_s("server.aggregate")
    evaluate = rows.get("evaluate")
    out["evaluate_s"] = self_s("evaluate")
    out["evaluate_calls"] = evaluate.calls if evaluate else 0

    if probes.save_seconds:
        out["checkpoint.save_s_p50"] = float(np.median(rows["checkpoint.save"].durations))
        out["checkpoint.bytes_per_save"] = float(np.median(probes.save_bytes))

    records = result.history.records
    aggregated = sum(r.aggregated for r in records)
    if root_name == "engine.run":
        out["engine.self_s"] = self_s("engine.run")
        trained = sum(len(r.participating) for r in records)
    else:
        out["coordinator.self_s"] = self_s("coordinator.run")
        out["federation.materialize_s"] = self_s("federation.materialize")
        out["federation.materialize_calls"] = probes.materialized
        out["network.outcome_s"] = self_s("network.outcome")
        trained = probes.materialized
    out["federation.useful_share"] = aggregated / trained if trained else 0.0
    out["network.deliveries"] = sum(r.deliveries.get("delivered", 0) for r in records)
    out["network.duplicates"] = sum(r.deliveries.get("duplicate_copies", 0) for r in records)
    out["network.lost"] = sum(r.deliveries.get("lost", 0) for r in records)
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(row.self_seconds for row in rows.values())
    return out


def run_repetition(name: str, seed: int, traced: bool, workdir: Path) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    checks: Dict[str, bool] = {}

    # -- set-up, from scratch; the untraced builds give ``setup_s`` -------
    tracer = Tracer()
    setup_seconds: List[float] = []
    with Patches() as patches:
        if traced:
            wrap(tracer, patches, runner, "build_environment", "data.build_environment")
        for _ in range(1 if traced else workload.SETUP_REPEATS):
            job = None  # drop the previous build before the next starts
            started = time.perf_counter()
            job = workload.setup(seed, workdir)
            setup_seconds.append(time.perf_counter() - started)

    # -- the training run ---------------------------------------------------
    probes = Probes(job)
    profiler = OpProfiler() if traced else contextlib.nullcontext()
    with Patches() as patches:
        if traced:  # spans inside, probes outside, restored in reverse
            install_layer_spans(tracer, patches, job.engine.strategy)
        probes.install(patches)
        with profiler:
            started = time.perf_counter()
            result = workload.train(job)
            wall = time.perf_counter() - started

    records = result.history.records
    accuracies = [float(r.test_accuracy) for r in records]
    evaluated = evaluated_rounds(len(records), job.eval_every)
    ends = probes.version_stamps[: len(records)]
    round_seconds = [b - a for a, b in zip([started] + ends, ends)]
    samples = workload.version_samples(job, records, probes.batch_marks)

    checks["not_diverged"] = not result.diverged
    checks["finite_params"] = bool(
        np.isfinite(result.final_params).all() and np.isfinite(result.output_params).all()
    )
    hits = [i for i in evaluated if accuracies[i] >= job.target]
    floor = job.target - workload.accuracy_margin
    checks["learned"] = max(accuracies[i] for i in evaluated) >= floor
    checks["one_stamp_per_version"] = len(probes.version_stamps) == len(records)

    e2e: Dict[str, float] = {
        "final_accuracy": float(np.mean(stats.last_quarter([accuracies[i] for i in evaluated]))),
    }
    if hits:
        e2e["time_to_target_s"] = ends[hits[0]] - started

    layers: Dict[str, float] = {}
    if traced:
        root_name = "engine.run" if workload.engine_kind == "sync" else "coordinator.run"
        layers = layer_metrics(tracer, root_name, profiler, result, probes)
        build = [s.duration for s in tracer.finished if s.name == "data.build_environment"]
        if build:
            layers["data.build_environment_s"] = build[0]
        # The benchmark's own accounting, not the program: the self times
        # of the run's span tree must add up to the wall time measured
        # outside the wrappers.
        checks["self_times_sum_to_wall"] = abs(layers["trace.self_sum_s"] - wall) <= (
            1e-3 * wall + 1e-3
        )
        write_spans(tracer.finished, ROOT / ".perfbench_out" / "traces" / f"{name}-s{seed}.json")

    # -- resume from the mid-run checkpoint (checkpointing workloads) ------
    if workload.checkpoint:
        e2e["checkpoint_s_p50"] = float(np.median(probes.save_seconds))
        load_seconds: List[float] = []
        load = checkpoint_mod.load_simulation

        def timed_load(simulation, directory):
            begun = time.perf_counter()
            out = load(simulation, directory)
            load_seconds.append(time.perf_counter() - begun)
            return out

        with Patches() as resume_patches:
            resume_patches.replace(checkpoint_mod, "load_simulation", timed_load)
            rebuild_started = time.perf_counter()
            fresh = workload.setup(seed, workdir)
            rebuild = time.perf_counter() - rebuild_started
            resumed = fresh.engine.run(job.rounds, resume_from=job.mid_dir)
        e2e["resume_s"] = rebuild + load_seconds[0]
        if traced:
            layers["checkpoint.load_s"] = load_seconds[0]
        checks["resume_bit_exact"] = (
            resumed.final_params.tobytes() == result.final_params.tobytes()
            and [float(r.test_accuracy) for r in resumed.history.records] == accuracies
        )
        clear_dir(job.checkpoint_dir)
        clear_dir(job.mid_dir)

    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    return {
        "workload": name,
        "seed": seed,
        "mode": "traced" if traced else "plain",
        "wall_s": wall,
        "setup_seconds": setup_seconds,
        # Per server version: wall seconds, local SGD samples trained and
        # client updates aggregated.  run.py pools them over repetitions.
        "versions": {
            "seconds": round_seconds,
            "samples": samples,
            "updates": [r.aggregated for r in records],
        },
        "accuracies": accuracies,
        "params_sha256": params_digest(result.final_params),
        "checks": checks,
        "e2e": e2e,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    out = run_repetition(args.workload, args.seed, args.mode == "traced", args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
