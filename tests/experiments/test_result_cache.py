"""Tests for the runner's result memoisation."""

import numpy as np

from repro.autograd import default_dtype, get_default_dtype
from repro.experiments import run_algorithm
from repro.experiments.runner import _RESULT_CACHE
from repro.fl import FederatedSimulation


class TestResultCache:
    def test_default_runs_cached(self, tiny_config, monkeypatch):
        _RESULT_CACHE.clear()
        runs = []
        original_run = FederatedSimulation.run

        def counting_run(self, *args, **kwargs):
            runs.append(1)
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(FederatedSimulation, "run", counting_run)
        first = run_algorithm(tiny_config, "fedavg")
        second = run_algorithm(tiny_config, "fedavg")
        assert len(runs) == 1  # the second call is served without re-training
        assert first.final_params.tobytes() == second.final_params.tobytes()

    def test_hits_are_independent_copies(self, tiny_config):
        _RESULT_CACHE.clear()
        first = run_algorithm(tiny_config, "fedavg")
        params = first.final_params.copy()
        accuracies = first.history.accuracies
        first.final_params[:] = 0.0
        first.history.records.clear()
        second = run_algorithm(tiny_config, "fedavg")
        assert second is not first
        assert np.array_equal(second.final_params, params)
        assert np.array_equal(second.history.accuracies, accuracies)
        second.final_params[:] = 1.0
        assert np.array_equal(run_algorithm(tiny_config, "fedavg").final_params, params)

    def test_overrides_bypass_cache(self, tiny_config):
        _RESULT_CACHE.clear()
        cached = run_algorithm(tiny_config, "taco")
        overridden = run_algorithm(tiny_config, "taco", gamma=0.0, detect_freeloaders=False)
        assert cached is not overridden

    def test_custom_strategy_bypasses_cache(self, tiny_config):
        from repro.algorithms import FedAvg

        _RESULT_CACHE.clear()
        run_algorithm(tiny_config, "fedavg")
        strategy = FedAvg(local_lr=tiny_config.local_lr, local_steps=tiny_config.local_steps)
        custom = run_algorithm(tiny_config, "fedavg", strategy=strategy)
        cache_key = (tiny_config, "fedavg", get_default_dtype().name)
        assert custom is not _RESULT_CACHE[cache_key]

    def test_dtype_keys_are_distinct(self, tiny_config):
        # float32 and float64 runs of the same config must not share entries.
        _RESULT_CACHE.clear()
        run_algorithm(tiny_config, "fedavg")
        with default_dtype("float32"):
            run_algorithm(tiny_config, "fedavg")
        assert (tiny_config, "fedavg", "float64") in _RESULT_CACHE
        assert (tiny_config, "fedavg", "float32") in _RESULT_CACHE

    def test_different_config_is_distinct(self, tiny_config):
        _RESULT_CACHE.clear()
        a = run_algorithm(tiny_config, "fedavg")
        b = run_algorithm(tiny_config.with_overrides(seed=3), "fedavg")
        assert a is not b
        assert not np.allclose(a.final_params, b.final_params)
