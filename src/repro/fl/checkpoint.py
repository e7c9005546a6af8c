"""Checkpointing: persist and restore models and training runs.

Long federated runs (the paper's T = 200, K = 1000 settings) need restart
capability.  :func:`save_model` writes a model's parameters and buffers as
an ``.npz`` archive and :func:`save_history` a training history as JSON.

:func:`save_simulation` / :func:`load_simulation` checkpoint a whole run of
either engine (:class:`~repro.fl.simulation.FederatedSimulation` or
:class:`~repro.federation.coordinator.AsyncCoordinator`) as one file,
``checkpoint.npz``.  It holds every array of the run plus one JSON document
stored as a ``uint8`` member: the server vectors, the model state,
``Strategy.state_dict()``, the history, the engine's own ``state_dict()``
(RNG streams, event loop, guard), the format version and a fingerprint of
the run's configuration.  Everything required for a killed run to resume
**bit-exact** at the next round boundary is in that one file.

The file is written to a temp file beside it, fsynced and published with
``os.replace``, so a crash during a save leaves the previous checkpoint
intact.  A resume into a differently configured run is refused with an
error naming every differing field.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict

import numpy as np

from ..nn.module import Module
from .history import RecoveryEvent, RoundRecord, TrainingHistory


def save_model(model: Module, path: str | Path) -> None:
    """Persist a model's parameters and buffers to an ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = model.state_dict()
    np.savez(path, **{key.replace("/", "_"): value for key, value in state.items()})


def load_model(model: Module, path: str | Path) -> Module:
    """Restore parameters and buffers saved by :func:`save_model`."""
    archive = np.load(Path(path))
    state: Dict[str, np.ndarray] = {key: archive[key] for key in archive.files}
    model.load_state_dict(state)
    return model


def _history_payload(history: TrainingHistory) -> Dict[str, Any]:
    """The JSON encoding of a history (shared by files and checkpoints)."""
    records = []
    for record in history.records:
        records.append(
            {
                "round": record.round,
                "test_accuracy": record.test_accuracy,
                "test_loss": record.test_loss,
                "round_sim_time": record.round_sim_time,
                "cumulative_sim_time": record.cumulative_sim_time,
                "round_wall_time": record.round_wall_time,
                "participating": list(record.participating),
                "alphas": {str(k): v for k, v in record.alphas.items()},
                "expelled": list(record.expelled),
                "update_norms": {str(k): v for k, v in record.update_norms.items()},
                "dropped": list(record.dropped),
                "quarantined": {str(k): v for k, v in record.quarantined.items()},
                "stragglers": list(record.stragglers),
                "retries": {str(k): v for k, v in record.retries.items()},
                "duplicated": list(record.duplicated),
                "deliveries": dict(record.deliveries),
                "aggregated": record.aggregated,
                "skipped": record.skipped,
                "uplink_bytes": record.uplink_bytes,
                "downlink_bytes": record.downlink_bytes,
                "anomalies": list(record.anomalies),
                "recovery": record.recovery,
            }
        )
    recoveries = [
        {
            "round": event.round,
            "action": event.action,
            "anomalies": list(event.anomalies),
            "rolled_back_to": event.rolled_back_to,
            "lr_scale": event.lr_scale,
            "blamed_clients": list(event.blamed_clients),
            "detail": event.detail,
        }
        for event in history.recoveries
    ]
    return {"records": records, "recoveries": recoveries}


def _history_from_payload(payload: Dict[str, Any]) -> TrainingHistory:
    """Rebuild a history from :func:`_history_payload`'s encoding."""
    history = TrainingHistory()
    for item in payload["records"]:
        history.append(
            RoundRecord(
                round=item["round"],
                test_accuracy=item["test_accuracy"],
                test_loss=item["test_loss"],
                round_sim_time=item["round_sim_time"],
                cumulative_sim_time=item["cumulative_sim_time"],
                round_wall_time=item["round_wall_time"],
                participating=list(item["participating"]),
                alphas={int(k): v for k, v in item["alphas"].items()},
                expelled=list(item["expelled"]),
                update_norms={int(k): v for k, v in item["update_norms"].items()},
                dropped=list(item.get("dropped", [])),
                quarantined={int(k): v for k, v in item.get("quarantined", {}).items()},
                stragglers=list(item.get("stragglers", [])),
                retries={int(k): int(v) for k, v in item.get("retries", {}).items()},
                duplicated=list(item.get("duplicated", [])),
                deliveries={
                    str(k): int(v) for k, v in item.get("deliveries", {}).items()
                },
                aggregated=int(item.get("aggregated", 0)),
                skipped=bool(item.get("skipped", False)),
                uplink_bytes=int(item.get("uplink_bytes", 0)),
                downlink_bytes=int(item.get("downlink_bytes", 0)),
                anomalies=list(item.get("anomalies", [])),
                recovery=item.get("recovery"),
            )
        )
    for item in payload.get("recoveries", []):
        history.recoveries.append(
            RecoveryEvent(
                round=int(item["round"]),
                action=item["action"],
                anomalies=list(item.get("anomalies", [])),
                rolled_back_to=(
                    int(item["rolled_back_to"])
                    if item.get("rolled_back_to") is not None
                    else None
                ),
                lr_scale=float(item.get("lr_scale", 1.0)),
                blamed_clients=[int(c) for c in item.get("blamed_clients", [])],
                detail=item.get("detail", ""),
            )
        )
    return history


def save_history(history: TrainingHistory, path: str | Path) -> None:
    """Persist a :class:`TrainingHistory` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_history_payload(history), indent=2))


def load_history(path: str | Path) -> TrainingHistory:
    """Restore a history saved by :func:`save_history`."""
    return _history_from_payload(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Full-run checkpoints
# ----------------------------------------------------------------------
CHECKPOINT_FILE = "checkpoint.npz"

#: Bumped when the layout of ``checkpoint.npz`` changes incompatibly.
FORMAT_VERSION = 1

#: Separator for flattened nested state paths; npz/zip member names accept it
#: and it cannot collide with module-style "/" or "." key characters.
_SEP = "|"

#: The npz member holding the JSON document.  Every array member's name
#: contains ``_SEP``, so this one cannot collide with them.
_DOCUMENT = "document"


def _flatten_state(
    value: Any, prefix: str, arrays: Dict[str, np.ndarray], scalars: Dict[str, Any]
) -> None:
    """Split nested state into npz-able arrays and JSON scalars.

    Dicts are walked (an empty one is kept as a JSON ``{}``), sets become a
    tagged sorted list, and everything else is a JSON value.
    """
    if isinstance(value, np.ndarray):
        arrays[prefix] = value
    elif isinstance(value, (set, frozenset)):
        scalars[prefix] = {"__set__": sorted(value)}
    elif isinstance(value, dict) and value:
        for key, sub in value.items():
            _flatten_state(sub, f"{prefix}{_SEP}{key}", arrays, scalars)
    else:
        scalars[prefix] = value


def _unflatten_state(flat: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the nested dict split by :func:`_flatten_state` (keys as str)."""
    nested: Dict[str, Any] = {}
    for path, value in flat.items():
        parts = path.split(_SEP)
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if isinstance(value, dict) and set(value) == {"__set__"}:
            value = set(value["__set__"])
        node[parts[-1]] = value
    return nested


def _fingerprint(engine) -> Dict[str, Any]:
    """The run configuration a checkpoint may only be resumed into.

    ``rounds`` is deliberately absent: resuming with more rounds extends a
    run.  ``global_lr`` is the engine's configured rate, not the server's,
    which the guard's backoff changes mid-run.
    """
    params = engine.server.state.global_params
    fingerprint = {
        "strategy": engine.strategy.name,
        "local_lr": engine.strategy.local_lr,
        "local_steps": engine.strategy.local_steps,
        "global_lr": engine.global_lr,
        "seed": engine.seed,
        "param_dtype": str(params.dtype),
        "param_count": int(params.size),
        **engine.fingerprint(),
    }
    # JSON-normalised (tuples become lists, int keys str) so a fresh
    # fingerprint compares equal to one read back from disk.
    return json.loads(json.dumps(fingerprint))


def _check_fingerprint(saved: Dict[str, Any], current: Dict[str, Any]) -> None:
    differing = [
        f"{key.replace('_', ' ')} (saved {saved.get(key)!r}, current {current.get(key)!r})"
        for key in {**current, **saved}
        if saved.get(key) != current.get(key)
    ]
    if differing:
        raise ValueError(
            "checkpoint was written by a differently configured run; resuming "
            "would not reproduce it: " + "; ".join(differing)
        )


def _publish(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` atomically.

    The archive goes to a temp file in the same directory, is flushed and
    fsynced, replaces ``path`` in one ``os.replace``, and the directory is
    fsynced so the rename itself is durable.  A failure at any step leaves
    the previous file untouched and removes the temp file.
    """
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def save_simulation(engine, directory: str | Path) -> Path:
    """Checkpoint either engine into ``directory/checkpoint.npz``.

    Safe to call at any round boundary (the async coordinator calls it at
    flush boundaries); each save atomically replaces the previous one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    state = engine.server.state
    run_state = {
        "server": {
            "round": state.round,
            "global_params": state.global_params,
            "prev_global_params": state.prev_global_params,
            "global_delta": state.global_delta,
        },
        "model": engine.model.state_dict(),
        "strategy": engine.strategy.state_dict(),
        "engine": engine.state_dict(),
    }
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, Any] = {}
    for key, value in run_state.items():
        _flatten_state(value, key, arrays, scalars)
    document = {
        "format": FORMAT_VERSION,
        "fingerprint": _fingerprint(engine),
        "scalars": scalars,
        "history": _history_payload(engine.history),
    }
    arrays[_DOCUMENT] = np.frombuffer(json.dumps(document).encode(), dtype=np.uint8)
    _publish(directory / CHECKPOINT_FILE, arrays)
    return directory


def load_simulation(engine, directory: str | Path) -> int:
    """Restore a checkpoint into ``engine``; returns completed rounds.

    The engine must be configured like the checkpointed one (the stored
    fingerprint is compared first); everything mutable is then overwritten
    so the next round replays exactly as in the uninterrupted run.
    """
    path = Path(directory) / CHECKPOINT_FILE
    with np.load(path) as archive:
        flat: Dict[str, Any] = {key: archive[key] for key in archive.files}
    document = json.loads(flat.pop(_DOCUMENT).tobytes())
    if document["format"] != FORMAT_VERSION:
        raise ValueError(
            f"{path} has checkpoint format {document['format']}, "
            f"this version reads format {FORMAT_VERSION}"
        )
    _check_fingerprint(document["fingerprint"], _fingerprint(engine))
    flat.update(document["scalars"])
    run_state = _unflatten_state(flat)

    server = run_state["server"]
    state = engine.server.state
    state.round = int(server["round"])
    state.global_params = server["global_params"]
    state.prev_global_params = server["prev_global_params"]
    state.global_delta = server["global_delta"]
    engine.model.load_state_dict(run_state["model"])
    engine.strategy.reset()
    engine.strategy.load_state_dict(run_state["strategy"])
    engine.history = _history_from_payload(document["history"])
    # Last: the guard's state restore reads the restored server and history.
    engine.load_state_dict(run_state["engine"])
    return state.round
