"""RNG modes, dtype modes, and the perf fast paths behind them.

Covers the ``REPRO_RNG=philox`` counter-based sampling mode and the
``REPRO_DTYPE=float32`` throughput mode: stream determinism and chunk
invariance of the fused slab, statistical equivalence to the bit-exact
SeedSequence contract, engine cache keying by both modes, the bounded
thread-safe ``trial_rng`` memo, the no-copy dtype coercion helpers, and the
aligned scratch workspace behind the fused GEMM paths.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.arch.templates import build_tempo
from repro.core.engine import EvaluationEngine
from repro.onn.layers import (
    Workspace,
    _as_float,
    _match_dtype,
    active_workspace,
    compute_dtype,
    dtype_mode,
    scratch_workspace,
)
from repro.onn.models import build_mlp
from repro.onn.quantize import quantize_uniform_batch
from repro.scenarios.bench import bench_scenarios, check_speedups
from repro.variation import (
    AccuracyRequest,
    LinkOperatingPoint,
    make_trial_rng,
    philox_fused_normals,
    philox_trial_rng,
    rng_mode,
    run_monte_carlo,
    standard_noise,
)
from repro.variation import sampler
from repro.variation.sampler import trial_rng, trial_seed_sequence


@pytest.fixture(scope="module")
def mc_model():
    return build_mlp((16, 24, 12, 6), rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def mc_inputs():
    return np.random.default_rng(9).normal(size=(32, 16))


def make_request(mc_model, mc_inputs, **kwargs):
    kwargs.setdefault("noise", standard_noise())
    kwargs.setdefault("trials", 8)
    kwargs.setdefault("seed", 7)
    return AccuracyRequest(mc_model, mc_inputs, **kwargs)


# -- mode selection ---------------------------------------------------------------------


class TestModeEnvs:
    def test_default_modes_are_the_reference_contract(self, monkeypatch):
        monkeypatch.delenv("REPRO_RNG", raising=False)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert rng_mode() == "seedseq"
        assert dtype_mode() == "float64"
        assert compute_dtype() == np.dtype(np.float64)

    def test_env_selects_throughput_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG", "philox")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert rng_mode() == "philox"
        assert dtype_mode() == "float32"
        assert compute_dtype() == np.dtype(np.float32)

    def test_unknown_modes_fail_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG", "xoshiro")
        with pytest.raises(ValueError, match="REPRO_RNG"):
            rng_mode()
        monkeypatch.setenv("REPRO_DTYPE", "float16")
        with pytest.raises(ValueError, match="REPRO_DTYPE"):
            dtype_mode()


# -- counter-based streams --------------------------------------------------------------


class TestPhiloxStreams:
    def test_fused_slab_is_deterministic(self):
        a = philox_fused_normals(42, trials=6, draws=33)
        b = philox_fused_normals(42, trials=6, draws=33)
        assert a.shape == (6, 33)
        assert np.array_equal(a, b)

    def test_rows_are_pure_functions_of_seed_trial_draws(self):
        """Any chunking of the trial axis slices the same per-trial blocks."""
        full = philox_fused_normals(42, trials=8, draws=33)
        prefix = philox_fused_normals(42, trials=3, draws=33)
        assert np.array_equal(full[:3], prefix)

    def test_seeds_give_independent_slabs(self):
        a = philox_fused_normals(1, trials=4, draws=16)
        b = philox_fused_normals(2, trials=4, draws=16)
        assert not np.array_equal(a, b)

    def test_native_float32_generation(self):
        slab = philox_fused_normals(42, trials=4, draws=16, dtype=np.float32)
        assert slab.dtype == np.float32

    def test_trial_rng_streams_are_deterministic_and_independent(self):
        assert np.array_equal(
            philox_trial_rng(5, 3).normal(size=8), philox_trial_rng(5, 3).normal(size=8)
        )
        assert not np.array_equal(
            philox_trial_rng(5, 0).normal(size=8), philox_trial_rng(5, 1).normal(size=8)
        )
        with pytest.raises(ValueError, match="non-negative"):
            philox_trial_rng(5, -1)

    def test_make_trial_rng_dispatches_by_mode(self):
        seedseq = make_trial_rng(5, 2, "seedseq").normal(size=8)
        assert np.array_equal(seedseq, trial_rng(5, 2).normal(size=8))
        philox = make_trial_rng(5, 2, "philox").normal(size=8)
        assert np.array_equal(philox, philox_trial_rng(5, 2).normal(size=8))
        with pytest.raises(ValueError, match="unknown RNG mode"):
            make_trial_rng(5, 2, "pcg")

    def test_per_trial_blocks_are_standard_normal(self):
        """Satellite: each trial's fused block passes mean/std sanity bounds."""
        slab = philox_fused_normals(2024, trials=64, draws=4096)
        means = slab.mean(axis=1)
        stds = slab.std(axis=1)
        # 1/sqrt(4096) = 0.015625 per-row standard error; 0.1 is > 6 sigma.
        assert np.all(np.abs(means) < 0.1)
        assert np.all(np.abs(stds - 1.0) < 0.1)


# -- Monte Carlo under philox -----------------------------------------------------------


class TestPhiloxMonteCarlo:
    def test_reports_are_deterministic(self, mc_model, mc_inputs, monkeypatch):
        monkeypatch.setenv("REPRO_RNG", "philox")
        link = LinkOperatingPoint(
            optical_power_mw=1.2, insertion_loss_db=6.0, bandwidth_ghz=5.0
        )
        first = run_monte_carlo(make_request(mc_model, mc_inputs), link=link)
        again = run_monte_carlo(make_request(mc_model, mc_inputs), link=link)
        assert first == again
        assert first.accuracies

    def test_trial_prefix_is_invariant_to_trial_count(
        self, mc_model, mc_inputs, monkeypatch
    ):
        """Satellite: trial i's outcome is a pure function of (seed, i).

        Growing the study must extend -- not reshuffle -- the per-trial
        results, which is what makes the fused slab's chunking irrelevant.
        """
        monkeypatch.setenv("REPRO_RNG", "philox")
        short = run_monte_carlo(make_request(mc_model, mc_inputs, trials=6))
        long = run_monte_carlo(make_request(mc_model, mc_inputs, trials=12))
        assert long.accuracies[:6] == short.accuracies

    def test_philox_is_statistically_equivalent_to_seedseq(
        self, mc_model, mc_inputs, monkeypatch
    ):
        """Different streams, same distribution: aggregate metrics agree."""
        monkeypatch.delenv("REPRO_RNG", raising=False)
        reference = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        monkeypatch.setenv("REPRO_RNG", "philox")
        fast = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        assert fast.accuracies != reference.accuracies  # genuinely different draws
        assert fast.accuracy_mean == pytest.approx(reference.accuracy_mean, abs=0.15)
        assert fast.rmse_mean == pytest.approx(reference.rmse_mean, rel=0.5, abs=0.05)

    def test_float32_mode_tracks_float64_statistics(
        self, mc_model, mc_inputs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RNG", "philox")
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        f64 = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        f32 = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        assert all(np.isfinite(a) for a in f32.accuracies)
        assert f32.accuracy_mean == pytest.approx(f64.accuracy_mean, abs=0.15)

    def test_seedseq_default_is_untouched_by_the_fast_path(
        self, mc_model, mc_inputs, monkeypatch
    ):
        """The bit-exact contract survives a philox run in the same process."""
        monkeypatch.delenv("REPRO_RNG", raising=False)
        before = run_monte_carlo(make_request(mc_model, mc_inputs))
        monkeypatch.setenv("REPRO_RNG", "philox")
        run_monte_carlo(make_request(mc_model, mc_inputs))
        monkeypatch.delenv("REPRO_RNG", raising=False)
        after = run_monte_carlo(make_request(mc_model, mc_inputs))
        assert after.accuracies == before.accuracies
        assert after.rmse_mean == before.rmse_mean


# -- engine cache keying ----------------------------------------------------------------


class TestEngineCacheKeying:
    def test_rng_mode_keys_the_accuracy_cache(self, mc_model, mc_inputs, monkeypatch):
        monkeypatch.delenv("REPRO_RNG", raising=False)
        engine = EvaluationEngine(build_tempo())
        request = make_request(mc_model, mc_inputs)
        reference = engine.run_accuracy(request)
        monkeypatch.setenv("REPRO_RNG", "philox")
        fast = engine.run_accuracy(request)
        assert fast is not reference
        monkeypatch.delenv("REPRO_RNG", raising=False)
        assert engine.run_accuracy(request) is reference
        monkeypatch.setenv("REPRO_RNG", "philox")
        assert engine.run_accuracy(request) is fast

    def test_dtype_mode_keys_the_accuracy_cache(self, mc_model, mc_inputs, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        engine = EvaluationEngine(build_tempo())
        request = make_request(mc_model, mc_inputs)
        reference = engine.run_accuracy(request)
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        fast = engine.run_accuracy(request)
        assert fast is not reference
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert engine.run_accuracy(request) is reference


# -- bounded trial_rng memo -------------------------------------------------------------


class TestTrialRngMemo:
    def _clear(self):
        with sampler._STATE_LOCK:
            sampler._STATE_CACHE.clear()

    def test_eviction_is_deterministic_fifo(self, monkeypatch):
        monkeypatch.setattr(sampler, "_STATE_CACHE_MAX", 8)
        self._clear()
        for t in range(20):
            trial_rng(1234, t)
        with sampler._STATE_LOCK:
            assert list(sampler._STATE_CACHE) == [(1234, t) for t in range(12, 20)]

    def test_concurrent_hammer_keeps_bound_and_streams(self, monkeypatch):
        """Satellite regression: many threads, overlapping keys, small bound."""
        monkeypatch.setattr(sampler, "_STATE_CACHE_MAX", 64)
        self._clear()
        start = threading.Barrier(8)
        errors = []

        def worker(offset: int) -> None:
            try:
                start.wait()
                for step in range(300):
                    trial = (step * (offset + 1)) % 150
                    rng = trial_rng(999, trial)
                    assert isinstance(rng, np.random.Generator)
                    assert len(sampler._STATE_CACHE) <= 64
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with sampler._STATE_LOCK:
            assert len(sampler._STATE_CACHE) <= 64
        # Streams survive the hammering bit-exact: memoized state == fresh state.
        for trial in (0, 37, 149):
            expected = np.random.Generator(
                np.random.PCG64(trial_seed_sequence(999, trial))
            ).normal(size=6)
            assert np.array_equal(trial_rng(999, trial).normal(size=6), expected)


# -- no-copy dtype helpers --------------------------------------------------------------


class TestNoCopyCoercion:
    def test_as_float_passes_float_arrays_through(self):
        for dtype in (np.float64, np.float32):
            x = np.ones((4, 3), dtype=dtype)
            out = _as_float(x)
            assert out is x  # not merely a view: literally no new array
            assert np.shares_memory(out, x)

    def test_as_float_converts_integers_once(self):
        x = np.arange(6).reshape(2, 3)
        out = _as_float(x)
        assert out.dtype == np.float64
        assert not np.shares_memory(out, x)

    def test_match_dtype_is_noop_on_matching_dtype(self):
        x = np.ones(5, dtype=np.float32)
        assert _match_dtype(x, np.dtype(np.float32)) is x
        cast = _match_dtype(x, np.dtype(np.float64))
        assert cast.dtype == np.float64

    def test_quantize_batch_preserves_float32(self):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        out = quantize_uniform_batch(x, 6)
        assert out.dtype == np.float32


# -- aligned scratch workspace ----------------------------------------------------------


class TestScratchWorkspace:
    def test_take_returns_aligned_reused_buffers(self):
        ws = Workspace()
        a = ws.take("x", (7, 5), np.dtype(np.float64))
        assert a.shape == (7, 5)
        assert a.ctypes.data % 64 == 0
        b = ws.take("x", (7, 5), np.dtype(np.float64))
        assert np.shares_memory(a, b)  # same backing allocation, no realloc
        big = ws.take("x", (70, 50), np.dtype(np.float64))
        assert big.shape == (70, 50)
        assert big.ctypes.data % 64 == 0

    def test_scratch_scope_is_reentrant_and_thread_local(self):
        assert active_workspace() is None
        with scratch_workspace() as outer:
            assert active_workspace() is outer
            with scratch_workspace() as inner:
                assert inner is outer  # outermost scope wins
            assert active_workspace() is outer
        assert active_workspace() is None
        seen = {}

        def worker():
            seen["workspace"] = active_workspace()

        with scratch_workspace():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["workspace"] is None  # scope never leaks across threads


# -- scenario checks across modes -------------------------------------------------------


class TestScenarioChecksAcrossModes:
    @pytest.mark.parametrize(
        "rng, dtype",
        [("seedseq", "float64"), ("philox", "float64"), ("philox", "float32")],
    )
    def test_robustness_check_passes_in_every_mode(self, monkeypatch, rng, dtype):
        """``repro run --check`` must hold in the throughput modes too."""
        from repro.scenarios import REGISTRY

        monkeypatch.setenv("REPRO_RNG", rng)
        monkeypatch.setenv("REPRO_DTYPE", dtype)
        result = REGISTRY.run("variation_robustness", store=None, force=True)
        REGISTRY.verify("variation_robustness", result)


# -- bench mode matrix ------------------------------------------------------------------


class TestBenchModeMatrix:
    def test_non_reference_mode_records_reference_comparison(self):
        # variation_robustness has Monte Carlo stage work, so the non-default
        # modes actually diverge from the reference and the comparison is
        # meaningful (analytic-only scenarios skip it -- see below).
        payload = bench_scenarios(
            ["variation_robustness"], repeats=1, warmup=0, rng="philox",
            dtype="float32",
        )
        entry = payload["scenarios"]["variation_robustness"]
        assert entry["analytic_only"] is False
        assert entry["vectorized"]["knobs"]["REPRO_RNG"] == "philox"
        assert entry["vectorized"]["knobs"]["REPRO_DTYPE"] == "float32"
        assert entry["reference"]["knobs"]["REPRO_RNG"] == "seedseq"
        assert entry["reference"]["knobs"]["REPRO_DTYPE"] == "float64"
        assert entry["speedup_vs_reference_median"] > 0
        assert check_speedups(payload, {"variation_robustness": 0.0}) == []
        failures = check_speedups(payload, {"variation_robustness": 1e9})
        assert failures and "below" in failures[0]

    def test_analytic_scenario_skips_reference_comparison(self):
        # table1_taxonomy runs no Monte Carlo stages, so a reference-mode
        # rerun would measure pure timer jitter; the entry is flagged
        # analytic_only, no reference block or ratio is recorded, and a
        # --fail-below-ref gate on it fails deterministically.
        payload = bench_scenarios(
            ["table1_taxonomy"], repeats=1, warmup=0, rng="philox", dtype="float32"
        )
        entry = payload["scenarios"]["table1_taxonomy"]
        assert entry["analytic_only"] is True
        assert "reference" not in entry
        assert "speedup_vs_reference_median" not in entry
        failures = check_speedups(payload, {"table1_taxonomy": 1.0})
        assert len(failures) == 1 and "analytic-only" in failures[0]

    def test_reference_mode_has_no_reference_block(self):
        payload = bench_scenarios(["variation_robustness"], repeats=1, warmup=0)
        entry = payload["scenarios"]["variation_robustness"]
        assert "reference" not in entry
        failures = check_speedups(payload, {"variation_robustness": 1.0})
        assert failures == [
            "variation_robustness: no reference-mode comparison recorded"
        ]
