"""The variation-aware Monte Carlo accuracy subsystem (repro.variation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.architecture import ArchitectureConfig
from repro.arch.templates import build_tempo
from repro.core.cache import EvaluationCache
from repro.core.engine import EvaluationEngine
from repro.explore import DesignSpace, DesignSpaceExplorer, pareto_front
from repro.onn.models import build_mlp
from repro.onn.quantize import receiver_limited_bits
from repro.onn.workload import extract_workloads
from repro.scenarios import REGISTRY, BatchRunner, ResultStore, run_scenario
from repro.variation import (
    IDEAL,
    AccuracyRequest,
    Crosstalk,
    LinkLossDrift,
    NoiseSpec,
    PhaseError,
    VariationModel,
    WeightEncodingError,
    model_fingerprint,
    noisy_forward,
    reference_forward,
    run_monte_carlo,
    standard_noise,
    trial_rng,
)
from repro.variation.accuracy import aggregate_trials


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


# -- deterministic sampling -------------------------------------------------------------


class TestSampler:
    def test_same_seed_and_trial_reproduce_the_stream(self):
        a = trial_rng(5, 3).normal(size=16)
        b = trial_rng(5, 3).normal(size=16)
        assert np.array_equal(a, b)

    def test_trials_are_independent(self):
        a = trial_rng(5, 0).normal(size=16)
        b = trial_rng(5, 1).normal(size=16)
        assert not np.array_equal(a, b)

    def test_seeds_are_independent(self):
        a = trial_rng(5, 0).normal(size=16)
        b = trial_rng(6, 0).normal(size=16)
        assert not np.array_equal(a, b)

    def test_construction_order_is_irrelevant(self):
        """Chunked construction (trial chunks, design-point groups) changes nothing."""
        forward = [trial_rng(11, t).normal(size=4) for t in range(6)]
        backward = {t: trial_rng(11, t).normal(size=4) for t in reversed(range(6))}
        for t in range(6):
            assert np.array_equal(forward[t], backward[t])

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            trial_rng(0, -1)


# -- variation models -------------------------------------------------------------------


class TestVariationModels:
    def test_zero_magnitude_is_identity(self):
        spec = standard_noise().scaled(0.0)
        rng = trial_rng(0, 0)
        w = np.linspace(-1, 1, 12).reshape(3, 4)
        assert np.array_equal(spec.perturb_weights(w.copy(), rng), w)
        assert spec.static_loss_db() == 0.0
        assert spec.sample_loss_db(rng) == 0.0

    def test_weight_encoding_error_scales_with_sigma(self):
        w = np.ones((64, 64))
        small = WeightEncodingError(sigma=0.01).perturb_weights(w, trial_rng(1, 0))
        large = WeightEncodingError(sigma=0.10).perturb_weights(w, trial_rng(1, 0))
        assert np.abs(large - w).mean() > 5 * np.abs(small - w).mean()

    def test_phase_error_only_attenuates(self):
        w = np.ones(1000)
        out = PhaseError(sigma_rad=0.3).perturb_weights(w, trial_rng(2, 0))
        assert np.all(out <= 1.0)
        assert out.mean() < 1.0

    def test_crosstalk_mixes_lanes_and_preserves_totals(self):
        x = np.array([[1.0, 0.0, 0.0, 0.0]])
        mixed = Crosstalk(coupling=0.3).perturb_activations(x, trial_rng(0, 0))
        assert mixed[0, 0] < 1.0
        assert np.all(mixed[0, 1:] > 0.0)
        assert mixed.sum() == pytest.approx(1.0)

    def test_crosstalk_from_db(self):
        assert Crosstalk.from_db(30.0).coupling == pytest.approx(1e-3)

    def test_link_loss_drift_static_vs_sampled(self):
        drift = LinkLossDrift(mean_db=0.5, sigma_db=0.25)
        assert drift.static_loss_db() == 0.5
        samples = [drift.sample_loss_db(trial_rng(3, t)) for t in range(64)]
        assert all(s >= 0.0 for s in samples)
        assert np.std(samples) > 0.0

    def test_spec_scaling_scales_every_model(self):
        spec = standard_noise().scaled(2.0)
        weight, phase, xtalk, drift = spec.models
        assert weight.sigma == pytest.approx(0.04)
        assert phase.sigma_rad == pytest.approx(0.04)
        assert drift.mean_db == pytest.approx(1.0)
        assert xtalk.coupling == pytest.approx(2 * 10 ** (-2.7))

    def test_zero_spread_specs_are_deterministic(self):
        assert IDEAL.is_deterministic()
        assert standard_noise().scaled(0.0).is_deterministic()
        assert NoiseSpec((VariationModel(), Crosstalk(0.3))).is_deterministic()
        assert NoiseSpec(
            (
                Crosstalk(1e-2),
                LinkLossDrift(mean_db=3.0, sigma_db=0.0),
                WeightEncodingError(sigma=0.0, relative=False),
                PhaseError(sigma_rad=0.0),
            )
        ).is_deterministic()

    @pytest.mark.parametrize(
        "spread",
        [
            WeightEncodingError(sigma=0.01),
            WeightEncodingError(sigma=0.01, relative=False),
            PhaseError(sigma_rad=0.01),
            LinkLossDrift(mean_db=0.0, sigma_db=0.1),
        ],
        ids=["relative", "additive", "phase", "drift"],
    )
    def test_one_nonzero_sigma_is_not_deterministic(self, spread):
        quiet = standard_noise().scaled(0.0)
        assert not NoiseSpec(quiet.models + (spread,)).is_deterministic()
        assert not spread.is_deterministic()

    def test_custom_models_are_never_deterministic(self):
        class Quiet(VariationModel):
            pass

        assert Quiet().is_deterministic()  # inherited, but the spec refuses it
        assert not NoiseSpec((Quiet(),)).is_deterministic()
        assert not NoiseSpec((Crosstalk(0.1), Quiet())).is_deterministic()

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            WeightEncodingError(sigma=-0.1)
        with pytest.raises(ValueError):
            Crosstalk(coupling=1.5)
        with pytest.raises(ValueError):
            LinkLossDrift(mean_db=-1.0)
        with pytest.raises(TypeError):
            NoiseSpec(("not a model",))
        with pytest.raises(ValueError):
            standard_noise().scaled(-1.0)


# -- receiver-limited quantization ------------------------------------------------------


class TestReceiverLimitedBits:
    def test_effective_caps_nominal(self):
        assert receiver_limited_bits(8, 5.9) == 5

    def test_nominal_caps_effective(self):
        assert receiver_limited_bits(4, 9.2) == 4

    def test_floors_at_one_bit(self):
        assert receiver_limited_bits(8, 0.0) == 1
        assert receiver_limited_bits(8, 0.7) == 1

    def test_unmodeled_receiver_passes_through(self):
        assert receiver_limited_bits(6, None) == 6
        assert receiver_limited_bits(6, float("inf")) == 6

    def test_nan_and_bad_nominal_raise(self):
        with pytest.raises(ValueError, match="NaN"):
            receiver_limited_bits(8, float("nan"))
        with pytest.raises(ValueError):
            receiver_limited_bits(0, 4.0)


# -- noisy forward ----------------------------------------------------------------------


class TestNoisyForward:
    def test_model_is_never_mutated(self, mc_model, mc_inputs):
        before = [layer.weight.copy() for layer in mc_model.layers
                  if hasattr(layer, "weight")]
        noisy_forward(mc_model, mc_inputs, standard_noise(), trial_rng(0, 0))
        after = [layer.weight for layer in mc_model.layers if hasattr(layer, "weight")]
        for w0, w1 in zip(before, after):
            assert np.array_equal(w0, w1)

    def test_ideal_spec_matches_reference(self, mc_model, mc_inputs):
        a = noisy_forward(mc_model, mc_inputs, IDEAL, effective_bits=6.5)
        b = reference_forward(mc_model, mc_inputs, effective_bits=6.5)
        assert np.array_equal(a, b)

    def test_noise_changes_outputs(self, mc_model, mc_inputs):
        clean = reference_forward(mc_model, mc_inputs)
        noisy = noisy_forward(
            mc_model, mc_inputs, standard_noise().scaled(2.0), trial_rng(0, 0)
        )
        assert not np.array_equal(clean, noisy)

    def test_model_fingerprint_tracks_weights(self, mc_inputs):
        a = build_mlp((8, 6, 4), rng=np.random.default_rng(0))
        b = build_mlp((8, 6, 4), rng=np.random.default_rng(0))
        c = build_mlp((8, 6, 4), rng=np.random.default_rng(1))
        assert model_fingerprint(a) == model_fingerprint(b)
        assert model_fingerprint(a) != model_fingerprint(c)

    def test_model_fingerprint_tracks_structural_state(self):
        """Weight-free layer attributes (pool sizes, norm scales) must key the digest."""
        from repro.onn.layers import BatchNorm2d, MaxPool2d, Sequential

        assert model_fingerprint(Sequential(MaxPool2d(2))) != model_fingerprint(
            Sequential(MaxPool2d(3))
        )
        plain = BatchNorm2d(4)
        scaled = BatchNorm2d(4)
        scaled.scale = scaled.scale * 2.0
        assert model_fingerprint(Sequential(plain)) != model_fingerprint(
            Sequential(scaled)
        )


# -- Monte Carlo studies ----------------------------------------------------------------


class TestMonteCarlo:
    def test_zero_noise_is_exact_fidelity(self, mc_model, mc_inputs):
        request = make_request(
            mc_model, mc_inputs, noise=standard_noise().scaled(0.0), trials=3
        )
        report = run_monte_carlo(request)
        assert report.accuracy_mean == 1.0
        assert report.rmse_mean == 0.0

    def test_aggregates_cover_per_trial_spread(self, mc_model, mc_inputs):
        report = run_monte_carlo(
            make_request(mc_model, mc_inputs, noise=standard_noise().scaled(2.0))
        )
        assert report.trials == 8
        assert len(report.accuracies) == 8
        assert report.accuracy_min <= report.accuracy_mean <= report.accuracy_max
        assert 0.0 <= report.accuracy_mean <= 1.0
        assert report.error_rate == pytest.approx(1.0 - report.accuracy_mean)

    def test_float_reference_measures_quantization_too(self, mc_model, mc_inputs):
        quantized = run_monte_carlo(
            make_request(mc_model, mc_inputs, noise=NoiseSpec()),
            input_bits=3, weight_bits=3, output_bits=3,
        )
        vs_float = run_monte_carlo(
            make_request(mc_model, mc_inputs, noise=NoiseSpec(), reference="float"),
            input_bits=3, weight_bits=3, output_bits=3,
        )
        assert quantized.accuracy_mean == 1.0  # fidelity to itself
        assert vs_float.accuracy_mean < 1.0    # 3-bit grids lose real accuracy
        assert vs_float.rmse_mean > 0.0

    def test_request_validation(self, mc_model, mc_inputs):
        with pytest.raises(ValueError, match="trials"):
            AccuracyRequest(mc_model, mc_inputs, trials=0)
        with pytest.raises(ValueError, match="reference"):
            AccuracyRequest(mc_model, mc_inputs, reference="digital")

    def test_fingerprint_excludes_backend(self, mc_model, mc_inputs):
        a = make_request(mc_model, mc_inputs, backend="serial")
        b = make_request(mc_model, mc_inputs, jobs=2)
        c = make_request(mc_model, mc_inputs, seed=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_studies_refuse_task_shipping_backends(self, mc_model, mc_inputs):
        for backend in ("processes", "cluster", "threads"):
            with pytest.raises(ValueError, match="run in process"):
                make_request(mc_model, mc_inputs, backend=backend, jobs=2)
        serial = make_request(mc_model, mc_inputs, backend="serial", jobs=2)
        default = make_request(mc_model, mc_inputs)
        assert run_monte_carlo(serial) == run_monte_carlo(default)


# -- report aggregation -----------------------------------------------------------------


def _trial_arrays(size, values):
    """Per-trial arrays of ``size`` entries drawn from ``values``'s strategy."""
    return st.lists(values, min_size=size, max_size=size).map(np.array)


_CONSTANTS = st.sampled_from([0.95, 0.1, 47 / 48, 1 / 3, 0.0, 1.0])


@st.composite
def _trials(draw):
    size = draw(st.integers(min_value=1, max_value=300))
    if draw(st.booleans()):
        return tuple(np.full(size, draw(_CONSTANTS)) for _ in range(3))
    unit = st.floats(min_value=0.0, max_value=1.0)
    return (
        draw(_trial_arrays(size, unit)),
        draw(_trial_arrays(size, st.floats(min_value=0.0, max_value=10.0))),
        draw(_trial_arrays(size, st.floats(min_value=0.5, max_value=16.0))),
    )


class TestAggregateTrials:
    @settings(max_examples=200, deadline=None)
    @given(_trials())
    def test_means_stay_inside_their_arrays(self, arrays):
        accuracies, rmses, effective = arrays
        report = aggregate_trials(
            accuracies, rmses, effective, seed=0, effective_bits_nominal=8.0
        )
        for mean, values in (
            (report.accuracy_mean, accuracies),
            (report.rmse_mean, rmses),
            (report.effective_bits_mean, effective),
        ):
            assert values.min() <= mean <= values.max()
            if values.min() < values.mean() < values.max():
                assert mean == values.mean()  # an in-range mean is untouched
        assert report.accuracy_min <= report.accuracy_mean <= report.accuracy_max
        assert report.accuracy_std >= 0.0
        if report.accuracy_min == report.accuracy_max:
            assert report.accuracy_std == 0.0
            assert report.accuracy_mean == report.accuracy_min

    @pytest.mark.parametrize("value", [0.95, 0.1, 47 / 48])
    @pytest.mark.parametrize("size", [1, 64, 70, 256, 300])
    def test_a_constant_study_reports_its_value_exactly(self, value, size):
        constant = np.full(size, value)
        report = aggregate_trials(
            constant, constant, constant, seed=0, effective_bits_nominal=value
        )
        assert report.accuracy_mean == report.accuracy_min == report.accuracy_max
        assert report.accuracy_mean == value
        assert report.rmse_mean == value
        assert report.effective_bits_mean == value
        assert report.accuracy_std == 0.0


# -- engine integration -----------------------------------------------------------------


class TestEngineAccuracyPasses:
    def test_run_accuracy_produces_finite_report(self, mc_model, mc_inputs):
        engine = EvaluationEngine(build_tempo())
        report = engine.run_accuracy(make_request(mc_model, mc_inputs))
        assert 0.0 <= report.accuracy_mean <= 1.0
        assert np.isfinite(report.effective_bits_nominal)

    def test_unchanged_triple_is_a_cache_hit(self, mc_model, mc_inputs):
        engine = EvaluationEngine(build_tempo())
        request = make_request(mc_model, mc_inputs)
        first = engine.run_accuracy(request)
        second = engine.run_accuracy(request)
        assert second is first
        stats = engine.cache.stats
        assert stats["mc_accuracy"].hits == 1
        assert stats["receiver_precision"].hits == 1

    def test_noise_spec_change_misses(self, mc_model, mc_inputs):
        engine = EvaluationEngine(build_tempo())
        engine.run_accuracy(make_request(mc_model, mc_inputs))
        engine.run_accuracy(
            make_request(mc_model, mc_inputs, noise=standard_noise().scaled(2.0))
        )
        assert engine.cache.stats["mc_accuracy"].misses == 2

    def test_disabled_cache_recomputes(self, mc_model, mc_inputs):
        engine = EvaluationEngine(build_tempo(), cache=EvaluationCache(enabled=False))
        request = make_request(mc_model, mc_inputs, trials=2)
        assert engine.run_accuracy(request) == engine.run_accuracy(request)

    def test_engine_snr_analyzer_reaches_monte_carlo(self, mc_model, mc_inputs):
        """A configured receiver noise model must drive the MC effective bits."""
        from repro.core.snr import SNRAnalyzer

        request = make_request(mc_model, mc_inputs, trials=2)
        default = EvaluationEngine(build_tempo()).run_accuracy(request)
        degraded_engine = EvaluationEngine(build_tempo())
        degraded_engine.snr_analyzer = SNRAnalyzer(rin_db_per_hz=-120.0)
        degraded = degraded_engine.run_accuracy(request)
        assert degraded.effective_bits_nominal < default.effective_bits_nominal
        assert degraded.effective_bits_mean < default.effective_bits_mean

    def test_nominal_bits_match_receiver_precision_pass(self, mc_model, mc_inputs):
        """mc_accuracy's nominal bits come from the receiver_precision SNR report."""
        engine = EvaluationEngine(build_tempo())
        request = make_request(mc_model, mc_inputs, trials=2)
        report = engine.run_accuracy(request)
        link = engine.link_budget_for(engine.single_arch)
        received_mw = link.laser_optical_power_mw * 10.0 ** (
            -(link.insertion_loss_db + request.noise.static_loss_db()) / 10.0
        )
        expected = engine.snr_analyzer.analyze_received_power(
            received_mw, engine.single_arch.config.frequency_ghz
        )
        assert report.effective_bits_nominal == expected.effective_bits

    def test_observer_sees_the_accuracy_passes(self, mc_model, mc_inputs):
        from repro.core.engine import observe_passes

        seen = []
        with observe_passes(lambda name, engine, elapsed_s: seen.append(name)):
            EvaluationEngine(build_tempo()).run_accuracy(
                make_request(mc_model, mc_inputs, trials=2)
            )
        assert seen == ["receiver_precision", "mc_accuracy"]


# -- DSE integration --------------------------------------------------------------------


class TestAccuracyObjective:
    def test_points_carry_accuracy_and_error_rate(self, mc_model, mc_inputs):
        workloads = extract_workloads(mc_model, mc_inputs)
        explorer = DesignSpaceExplorer(
            build_tempo, workloads,
            accuracy=make_request(mc_model, mc_inputs, trials=4),
        )
        result = explorer.explore(DesignSpace({"input_bits": (4, 8)}))
        assert len(result.points) == 2
        for point in result.points:
            assert point.accuracy is not None
            assert 0.0 <= point.error_rate <= 1.0
            assert point.objective("error_rate") == pytest.approx(1 - point.accuracy)
        front = pareto_front(result.points, ("error_rate", "energy_uj"))
        assert 1 <= len(front) <= 2

    def test_missing_accuracy_objective_fails_loudly(self, mc_model, mc_inputs):
        workloads = extract_workloads(mc_model, mc_inputs)
        explorer = DesignSpaceExplorer(build_tempo, workloads)
        result = explorer.explore(DesignSpace({"input_bits": (4, 8)}))
        point = result.points[0]
        assert point.accuracy is None and point.error_rate is None
        with pytest.raises(ValueError, match="not evaluated"):
            point.objective("error_rate")
        with pytest.raises(ValueError, match="not evaluated"):
            pareto_front(result.points, ("error_rate", "energy_uj"))

    def test_backends_record_identical_accuracy_points(self, mc_model, mc_inputs):
        workloads = extract_workloads(mc_model, mc_inputs)
        space = DesignSpace({"input_bits": (4, 8)})

        def sweep(backend):
            explorer = DesignSpaceExplorer(
                build_tempo, workloads,
                accuracy=make_request(mc_model, mc_inputs, trials=4),
            )
            return explorer.explore(space, backend=backend, max_workers=2)

        serial = sweep("serial")
        assert sweep("processes").points == serial.points

    def test_rejects_non_request_accuracy(self, mc_model, mc_inputs):
        workloads = extract_workloads(mc_model, mc_inputs)
        with pytest.raises(TypeError, match="AccuracyRequest"):
            DesignSpaceExplorer(build_tempo, workloads, accuracy="noisy")


# -- registered scenarios ---------------------------------------------------------------


class TestVariationScenarios:
    def test_robustness_scenario_refuses_task_shipping_backends(self):
        with pytest.raises(ValueError, match="run in process"):
            run_scenario(
                "variation_robustness", params={"backend": "processes", "jobs": "2"}
            )

    def test_robustness_table_ignores_jobs(self):
        """`jobs` is accepted for the serial backend and changes nothing."""
        default = run_scenario("variation_robustness")
        with_jobs = run_scenario(
            "variation_robustness", params={"backend": "serial", "jobs": "4"}
        )
        assert with_jobs.table == default.table

    def test_pareto_table_is_byte_identical_across_backends(self):
        """Design-point groups on workers run their Monte Carlo in process."""
        serial = run_scenario("accuracy_energy_pareto")
        processes = run_scenario(
            "accuracy_energy_pareto", params={"backend": "processes", "jobs": "2"}
        )
        assert processes.metrics["backend"] == "processes"
        assert processes.table == serial.table

    def test_pareto_scenario_runs_through_repro_batch(self, tmp_path):
        """Acceptance: accuracy as a DSE objective, batch-run and persisted."""
        store = ResultStore(tmp_path / "store")
        report = BatchRunner(store=store).run(["accuracy_energy_pareto"])
        assert report.ok
        item = report.item("accuracy_energy_pareto")
        REGISTRY.verify("accuracy_energy_pareto", item.result)
        again = BatchRunner(store=store).run(["accuracy_energy_pareto"])
        assert again.all_from_store
        assert again.engine_passes == 0

    def test_precision_scenario_shows_the_saturating_curve(self):
        result = run_scenario("accuracy_vs_precision")
        REGISTRY.verify("accuracy_vs_precision", result)
        series = {int(k): v for k, v in result.metrics["series"].items()}
        assert series[8]["accuracy_mean"] > series[2]["accuracy_mean"]

    def test_workload_seed_params_change_inputs_without_source_edits(self):
        base = run_scenario("fig10b_data_aware")
        reseeded = run_scenario("fig10b_data_aware", params={"workload_seed": 8})
        assert base.table != reseeded.table
        assert base.params["workload_seed"] == 7
