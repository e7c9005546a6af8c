"""Workload definitions: evaluated-version indices and seed-independent work."""

import pytest

from repro.experiments.runner import _build_environment
from workloads import WORKLOADS, evaluated_rounds


def test_evaluated_rounds_follow_the_engines_cadence():
    assert evaluated_rounds(12, 1) == list(range(12))
    assert evaluated_rounds(100, 5) == [0] + list(range(4, 100, 5))
    assert evaluated_rounds(7, 5) == [0, 4, 6]  # the last version is refreshed
    assert evaluated_rounds(0, 5) == []


@pytest.mark.parametrize("name", ["sync-cnn-fmnist", "sync-cnn-cifar10", "sync-mlp-100clients"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_sync_client_trains_full_batches(name, seed):
    """The work per round must not depend on the seed."""
    config = WORKLOADS[name].config(seed)
    env = _build_environment(config)
    assert len(env.client_datasets) == config.num_clients
    assert min(len(data) for data in env.client_datasets) >= config.batch_size


def test_workload_names_and_reasons():
    assert sorted(WORKLOADS) == sorted(
        ["sync-cnn-fmnist", "sync-cnn-cifar10", "sync-mlp-100clients", "async-mlp-1m-chaos"]
    )
    for workload in WORKLOADS.values():
        assert 0 < len(workload.why) <= 200
