"""Checkpoint/resume for the async coordinator: bit-exact continuation."""

import json

import numpy as np
import pytest

from repro.algorithms import algorithm_names, make_strategy
from repro.federation import AsyncCoordinator, ClientRegistry
from repro.fl.checkpoint import load_simulation, save_simulation
from repro.fl.degradation import DegradationPolicy


def build(algorithm="scaffold", seed=0, local_lr=0.05):
    registry = ClientRegistry(
        population=120, seed=seed, samples_per_client=16, batch_size=8
    )
    return AsyncCoordinator(
        registry=registry,
        strategy=make_strategy(algorithm, local_lr=local_lr, local_steps=2, rounds=6),
        test_set=registry.test_set(60),
        cohort_size=8,
        buffer_size=4,
        seed=seed,
        model=registry.make_model(width_multiplier=0.5),
    )


def assert_same_run(resumed, straight):
    assert resumed.final_params.tobytes() == straight.final_params.tobytes()
    for mine, theirs in zip(resumed.history.records, straight.history.records):
        assert mine.round == theirs.round
        assert mine.test_accuracy == theirs.test_accuracy
        assert mine.participating == theirs.participating
        assert mine.alphas == theirs.alphas


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_resume_is_bit_exact(tmp_path, algorithm):
    """3 rounds + checkpoint + resume to 6 == straight 6-round run."""
    straight = build(algorithm).run(6)

    first = build(algorithm)
    first.run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]

    resumed = build(algorithm).run(6, resume_from=tmp_path)
    assert_same_run(resumed, straight)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A save that dies inside the archive write leaves the round-3
    checkpoint intact and resumable, with no temp file behind."""
    straight = build().run(6)
    build().run(3, checkpoint_every=3, checkpoint_dir=tmp_path)

    def torn_write(file, **arrays):
        file.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full"):
            build().run(6, checkpoint_every=6, checkpoint_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]

    resumed_engine = build()
    resumed = resumed_engine.run(6, resume_from=tmp_path)
    assert_same_run(resumed, straight)


def test_resume_preserves_inflight_and_degradation(tmp_path):
    """In-flight events and straggler state survive the round trip."""
    coordinator = build()
    coordinator.degradation = DegradationPolicy(over_selection=0.25)
    coordinator.run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
    in_flight_before = coordinator.in_flight

    resumed = build()
    resumed.degradation = DegradationPolicy(over_selection=0.25)
    start_round = load_simulation(resumed, tmp_path)
    assert start_round == 3
    assert resumed.in_flight == in_flight_before
    assert resumed.virtual_time == coordinator.virtual_time


def test_population_mismatch_rejected(tmp_path):
    coordinator = build()
    coordinator.run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
    other = AsyncCoordinator(
        registry=ClientRegistry(population=60, seed=0, samples_per_client=16),
        strategy=make_strategy("scaffold", local_lr=0.05, local_steps=2, rounds=6),
        test_set=ClientRegistry(population=60, seed=0).test_set(60),
        cohort_size=8,
        buffer_size=4,
    )
    with pytest.raises(ValueError, match="population"):
        load_simulation(other, tmp_path)


def test_different_run_rejected(tmp_path):
    """A fedavg checkpoint does not resume into fedprox at 10x the lr; the
    error names every differing field with both values."""
    build("fedavg").run(3, checkpoint_every=3, checkpoint_dir=tmp_path)
    with pytest.raises(ValueError) as error:
        build("fedprox", local_lr=0.5).run(6, resume_from=tmp_path)
    message = str(error.value)
    assert "strategy (saved 'fedavg', current 'fedprox')" in message
    assert "local lr (saved 0.05, current 0.5)" in message
    assert "global lr (saved 0.1, current 1.0)" in message
    assert "seed" not in message and "population" not in message


def test_checkpoint_layout(tmp_path):
    coordinator = build()
    coordinator.run(3)
    save_simulation(coordinator, tmp_path / "snap")
    assert [p.name for p in (tmp_path / "snap").iterdir()] == ["checkpoint.npz"]

    archive = np.load(tmp_path / "snap" / "checkpoint.npz")
    document = json.loads(archive["document"].tobytes())
    assert document["scalars"]["server|round"] == 3
    assert document["fingerprint"]["population"] == 120
    assert len(document["history"]["records"]) == 3
    assert any(key.startswith("server") for key in archive.files)
    assert any(key.startswith("engine|events") for key in archive.files)
