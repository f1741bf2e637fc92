"""The dtype mode, the draw slab, and the perf fast paths behind them.

Covers the SeedSequence draw slab (row ``i`` is ``trial_rng(seed, i)``'s
stream, whatever the trial count, draw count or dtype mode), the
``REPRO_DTYPE=float32`` throughput mode (statistical agreement with float64,
engine cache keying), the per-request draw-slab memo that both dtype modes
share, the deterministic-spec collapse, the no-copy dtype coercion helpers,
and the aligned scratch workspace behind the fused GEMM paths.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.arch.templates import build_tempo
from repro.core.cache import EvaluationCache
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
    Crosstalk,
    LinkLossDrift,
    LinkOperatingPoint,
    NoiseSpec,
    PhaseError,
    WeightEncodingError,
    run_monte_carlo,
    seedseq_fused_normals,
    standard_noise,
    trial_rng,
)
from repro.variation import montecarlo
from repro.variation.accuracy import _weighted_layer_sizes, fused_draw_count
from oracles import loop_monte_carlo


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
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert dtype_mode() == "float64"
        assert compute_dtype() == np.dtype(np.float64)

    def test_env_selects_throughput_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert dtype_mode() == "float32"
        assert compute_dtype() == np.dtype(np.float32)

    def test_unknown_modes_fail_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float16")
        with pytest.raises(ValueError, match="REPRO_DTYPE"):
            dtype_mode()


# -- the SeedSequence draw slab ---------------------------------------------------------


class TestSeedSeqSlab:
    def test_fused_slab_is_deterministic(self):
        a = seedseq_fused_normals(42, trials=6, draws=33)
        b = seedseq_fused_normals(42, trials=6, draws=33)
        assert a.shape == (6, 33)
        assert a.dtype == np.float64
        assert np.array_equal(a, b)

    def test_trial_prefix_is_invariant_to_trial_count(self):
        """Any chunking of the trial axis slices the same per-trial rows."""
        full = seedseq_fused_normals(42, trials=8, draws=33)
        prefix = seedseq_fused_normals(42, trials=3, draws=33)
        assert np.array_equal(full[:3], prefix)

    def test_draw_prefix_is_invariant_to_draw_count(self):
        """Each row is one stream, so a shorter layout reads its head."""
        long = seedseq_fused_normals(42, trials=4, draws=33)
        short = seedseq_fused_normals(42, trials=4, draws=10)
        assert np.array_equal(long[:, :10], short)

    def test_seeds_give_independent_slabs(self):
        a = seedseq_fused_normals(1, trials=4, draws=16)
        b = seedseq_fused_normals(2, trials=4, draws=16)
        assert not np.array_equal(a, b)

    def test_rows_are_distinct_streams(self):
        slab = seedseq_fused_normals(5, trials=16, draws=512)
        correlations = np.corrcoef(slab)[np.triu_indices(16, k=1)]
        # 1/sqrt(512) ~= 0.044 per-pair standard error; 0.25 is > 5 sigma.
        assert np.all(np.abs(correlations) < 0.25)

    def test_per_trial_blocks_are_standard_normal(self):
        slab = seedseq_fused_normals(2024, trials=64, draws=4096)
        means = slab.mean(axis=1)
        stds = slab.std(axis=1)
        # 1/sqrt(4096) = 0.015625 per-row standard error; 0.1 is > 6 sigma.
        assert np.all(np.abs(means) < 0.1)
        assert np.all(np.abs(stds - 1.0) < 0.1)

    def test_zero_draws_is_an_empty_read_only_slab(self):
        slab = seedseq_fused_normals(3, trials=4, draws=0)
        assert slab.shape == (4, 0)
        assert not slab.flags.writeable

    @pytest.mark.parametrize(
        "trials, draws, message",
        [
            (0, 8, "trials must be positive"),
            (-2, 8, "trials must be positive"),
            (4, -1, "draws must be non-negative"),
        ],
        ids=["zero-trials", "negative-trials", "negative-draws"],
    )
    def test_invalid_sizes_are_rejected(self, trials, draws, message):
        with pytest.raises(ValueError, match=message):
            seedseq_fused_normals(3, trials=trials, draws=draws)

    def test_draw_slab_key_is_seed_trials_and_draws(self, mc_model, mc_inputs):
        request = make_request(mc_model, mc_inputs, seed=13, trials=5)
        draws = fused_draw_count(request.noise, mc_model)
        assert montecarlo.draw_slab_key(request) == (13, 5, draws)

    def test_draw_slab_is_float64_in_the_float32_mode(
        self, mc_model, mc_inputs, monkeypatch
    ):
        key = montecarlo.draw_slab_key(make_request(mc_model, mc_inputs))
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        reference = montecarlo.draw_slab(key)
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        fast = montecarlo.draw_slab(key)
        assert fast.dtype == np.float64
        assert np.array_equal(fast, reference)


# -- Monte Carlo under the SeedSequence contract ----------------------------------------


class TestSeedSeqMonteCarlo:
    def test_reports_are_deterministic(self, mc_model, mc_inputs):
        first = run_monte_carlo(make_request(mc_model, mc_inputs), link=LINK)
        again = run_monte_carlo(make_request(mc_model, mc_inputs), link=LINK)
        assert first == again
        assert len(first.accuracies) == 8

    def test_trial_prefix_is_invariant_to_trial_count(self, mc_model, mc_inputs):
        """Trial i's outcome is a pure function of (seed, i): growing the
        study extends the per-trial results instead of reshuffling them."""
        short = run_monte_carlo(make_request(mc_model, mc_inputs, trials=6))
        long = run_monte_carlo(make_request(mc_model, mc_inputs, trials=12))
        assert np.array_equal(long.accuracies[:6], short.accuracies)

    @pytest.mark.parametrize("value", ["philox", "seedseq", "xoshiro"])
    def test_the_retired_rng_variable_is_not_read(
        self, mc_model, mc_inputs, monkeypatch, value
    ):
        """``REPRO_RNG`` used to select a second stream contract; any value
        of it, even one that used to be refused, now leaves a study as is."""
        monkeypatch.delenv("REPRO_RNG", raising=False)
        before = run_monte_carlo(make_request(mc_model, mc_inputs))
        monkeypatch.setenv("REPRO_RNG", value)
        after = run_monte_carlo(make_request(mc_model, mc_inputs))
        assert after == before


# -- Monte Carlo under float32 ---------------------------------------------------------


class TestFloat32MonteCarlo:
    def test_float32_mode_tracks_float64_statistics(
        self, mc_model, mc_inputs, monkeypatch
    ):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        f64 = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        f32 = run_monte_carlo(make_request(mc_model, mc_inputs, trials=24))
        assert all(np.isfinite(a) for a in f32.accuracies)
        assert f32.accuracy_mean == pytest.approx(f64.accuracy_mean, abs=0.15)


# -- engine cache keying ----------------------------------------------------------------


class TestEngineCacheKeying:
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

    def test_the_retired_rng_variable_does_not_key_the_accuracy_cache(
        self, mc_model, mc_inputs, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RNG", raising=False)
        engine = EvaluationEngine(build_tempo())
        request = make_request(mc_model, mc_inputs)
        reference = engine.run_accuracy(request)
        monkeypatch.setenv("REPRO_RNG", "philox")
        assert engine.run_accuracy(request) is reference


# -- per-request draw slabs ------------------------------------------------------------


MAGNITUDES = (0.0, 0.25, 0.5, 1.0, 2.0)


def sweep(mc_model, mc_inputs, cache_for, trials=8, **kwargs):
    """One engine study per noise magnitude; ``cache_for(i)`` picks its cache."""
    arch = build_tempo()
    return [
        EvaluationEngine(arch, cache=cache_for(i)).run_accuracy(
            make_request(
                mc_model,
                mc_inputs,
                noise=standard_noise().scaled(magnitude),
                trials=trials,
                **kwargs,
            )
        )
        for i, magnitude in enumerate(MAGNITUDES)
    ]


class TestDrawSlabs:
    def test_seedseq_rows_are_the_per_trial_streams(self, mc_model):
        """Row i is what trial i's own generator draws: every link-loss draw
        first (two LinkLossDrift models here), then the fused weight block."""
        spec = NoiseSpec(
            (
                LinkLossDrift(mean_db=0.5, sigma_db=0.3),
                WeightEncodingError(sigma=0.02),
                LinkLossDrift(mean_db=0.1, sigma_db=0.7),
                PhaseError(sigma_rad=0.05),
            )
        )
        draws = fused_draw_count(spec, mc_model)
        assert draws == 2 + 2 * sum(_weighted_layer_sizes(mc_model))
        slab = seedseq_fused_normals(11, trials=5, draws=draws)
        assert not slab.flags.writeable
        for trial in range(5):
            rng = trial_rng(11, trial)
            loss = spec.sample_loss_db(rng)
            assert spec.sample_loss_db_batch(slab[trial : trial + 1, :2])[0] == loss
            assert np.array_equal(slab[trial, 2:], rng.standard_normal(draws - 2))

    def test_sweep_shares_one_slab_and_matches_the_loop(
        self, mc_model, mc_inputs, monkeypatch
    ):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        calls = []

        def spy(request, **kwargs):
            report = run_monte_carlo(request, **kwargs)
            calls.append((request, kwargs, report))
            return report

        monkeypatch.setattr("repro.variation.montecarlo.run_monte_carlo", spy)
        cache = EvaluationCache()
        sweep(mc_model, mc_inputs, lambda i: cache, trials=150)
        stats = cache.stats["mc_draws"]
        assert (stats.misses, stats.hits) == (1, 4)
        assert len(calls) == len(MAGNITUDES)
        assert all(kwargs["draws"] is calls[0][1]["draws"] for _, kwargs, _ in calls)
        for request, kwargs, report in calls:
            kwargs = {k: v for k, v in kwargs.items() if k != "draws"}
            assert report == loop_monte_carlo(request, **kwargs)

    def test_a_slab_of_another_shape_is_rejected(self, mc_model, mc_inputs):
        request = make_request(mc_model, mc_inputs)
        draws = fused_draw_count(request.noise, mc_model)
        for shape in ((request.trials + 1, draws), (request.trials, draws - 1)):
            with pytest.raises(ValueError, match="draw slab has shape"):
                run_monte_carlo(request, draws=np.zeros(shape))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"trials": 9},
            {"noise": NoiseSpec((WeightEncodingError(sigma=0.02),))},
        ],
        ids=["seed", "trials", "layout"],
    )
    def test_any_key_change_misses_the_memo(
        self, mc_model, mc_inputs, monkeypatch, change
    ):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        engine = EvaluationEngine(build_tempo(), cache=EvaluationCache())
        engine.run_accuracy(make_request(mc_model, mc_inputs))
        # Same key, different noise magnitude: a hit.
        engine.run_accuracy(
            make_request(mc_model, mc_inputs, noise=standard_noise().scaled(2.0))
        )
        engine.run_accuracy(make_request(mc_model, mc_inputs, **change))
        stats = engine.cache.stats["mc_draws"]
        assert (stats.misses, stats.hits) == (2, 1)

    def test_float64_and_float32_studies_share_one_slab(
        self, mc_model, mc_inputs, monkeypatch
    ):
        """The slab is float64 in both dtype modes, so a float32 study of the
        same ``(seed, trials, draws)`` is served the float64 study's slab --
        while the studies themselves stay apart in the ``mc_accuracy`` memo."""
        calls = []

        def spy(request, **kwargs):
            calls.append(kwargs["draws"])
            return run_monte_carlo(request, **kwargs)

        monkeypatch.setattr("repro.variation.montecarlo.run_monte_carlo", spy)
        engine = EvaluationEngine(build_tempo(), cache=EvaluationCache())
        request = make_request(mc_model, mc_inputs)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        f64 = engine.run_accuracy(request)
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        f32 = engine.run_accuracy(request)
        stats = engine.cache.stats["mc_draws"]
        assert (stats.misses, stats.hits) == (1, 1)
        assert len(calls) == 2 and calls[1] is calls[0]
        assert calls[0].dtype == np.float64
        assert f32 is not f64

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shared_and_fresh_caches_agree(
        self, mc_model, mc_inputs, monkeypatch, dtype
    ):
        monkeypatch.setenv("REPRO_DTYPE", dtype)
        cache = EvaluationCache()
        shared = sweep(mc_model, mc_inputs, lambda i: cache)
        fresh = sweep(mc_model, mc_inputs, lambda i: EvaluationCache())
        assert cache.stats["mc_draws"].hits == len(MAGNITUDES) - 1
        assert shared == fresh


# -- deterministic-spec collapse -------------------------------------------------------


DETERMINISTIC_SPECS = {
    "zero-magnitude": standard_noise().scaled(0.0),
    "static-penalties": NoiseSpec(
        (
            Crosstalk(1e-2),
            LinkLossDrift(3.0, 0.0),
            WeightEncodingError(sigma=0.0, relative=False),
            PhaseError(0.0),
        )
    ),
}
LINK = LinkOperatingPoint(optical_power_mw=1.2, insertion_loss_db=6.0, bandwidth_ghz=5.0)


class TestDeterministicCollapse:
    """A zero-spread study runs trial 0 alone; the report must equal the one
    every chunk of the study would have produced."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("spec_name", sorted(DETERMINISTIC_SPECS))
    @pytest.mark.parametrize("reference", ["quantized", "float"])
    @pytest.mark.parametrize("trials", [1, 70, 256])
    def test_collapsed_study_equals_every_chunk(
        self, mc_model, mc_inputs, monkeypatch, dtype, spec_name, reference, trials
    ):
        monkeypatch.setenv("REPRO_DTYPE", dtype)
        request = make_request(
            mc_model,
            mc_inputs,
            noise=DETERMINISTIC_SPECS[spec_name],
            trials=trials,
            reference=reference,
        )
        slab = montecarlo.draw_slab(montecarlo.draw_slab_key(request))
        chunks = []
        original = montecarlo._run_trial_chunk

        def spy(shared, trial_indices, draws):
            chunks.append((list(trial_indices), draws))
            return original(shared, trial_indices, draws)

        with monkeypatch.context() as patched:
            patched.setattr(montecarlo, "_run_trial_chunk", spy)
            collapsed = run_monte_carlo(request, link=LINK, draws=slab)
        assert [indices for indices, _ in chunks] == [[0]]
        assert np.array_equal(chunks[0][1], slab[:1])
        with monkeypatch.context() as patched:
            patched.setattr(NoiseSpec, "is_deterministic", lambda spec: False)
            uncollapsed = run_monte_carlo(request, link=LINK, draws=slab)
        assert collapsed == uncollapsed
        assert collapsed.trials == len(collapsed.accuracies) == trials


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
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_robustness_check_passes_in_every_mode(self, monkeypatch, dtype):
        """``repro run --check`` must hold in the throughput mode too."""
        from repro.scenarios import REGISTRY

        monkeypatch.setenv("REPRO_DTYPE", dtype)
        result = REGISTRY.run("variation_robustness", store=None, force=True)
        REGISTRY.verify("variation_robustness", result)


# -- bench mode matrix ------------------------------------------------------------------


class TestBenchModeMatrix:
    def test_non_reference_mode_records_reference_comparison(self):
        # variation_robustness has Monte Carlo stage work, so the non-default
        # mode actually diverges from the reference and the comparison is
        # meaningful (analytic-only scenarios skip it -- see below).
        payload = bench_scenarios(
            ["variation_robustness"], repeats=1, warmup=0, dtype="float32"
        )
        entry = payload["scenarios"]["variation_robustness"]
        assert entry["analytic_only"] is False
        assert entry["vectorized"]["mode"] == "float32"
        assert entry["vectorized"]["knobs"]["REPRO_DTYPE"] == "float32"
        assert entry["reference"]["mode"] == "float64"
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
            ["table1_taxonomy"], repeats=1, warmup=0, dtype="float32"
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
