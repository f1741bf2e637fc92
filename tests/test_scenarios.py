"""The scenario subsystem: spec validation, registry, store, batch runner."""

from __future__ import annotations

import json

import pytest

from repro.core.cache import EvaluationCache
from repro.core.engine import observe_passes
from repro.scenarios import (
    REGISTRY,
    BatchRunner,
    ResultStore,
    ScenarioResult,
    ScenarioSpec,
    run_scenario,
    scenario_fingerprint,
)

FAST_SCENARIOS = ("table1_taxonomy", "fig6_layout", "fig7_tempo_validation",
                  "fig10a_layout_aware")


# -- ScenarioSpec validation ------------------------------------------------------------


class TestScenarioSpecValidation:
    def test_minimal_spec_is_valid(self):
        spec = ScenarioSpec(name="demo", title="a demo")
        assert spec.name == "demo"

    def test_unknown_config_override_raises_with_suggestion(self):
        with pytest.raises(KeyError, match=r"core_heigth.*did you mean 'core_height'"):
            ScenarioSpec(name="demo", title="t", config_overrides={"core_heigth": 4})

    def test_unknown_sim_override_raises_with_suggestion(self):
        with pytest.raises(KeyError, match=r"data_awre.*did you mean 'data_aware'"):
            ScenarioSpec(name="demo", title="t", sim_overrides={"data_awre": False})

    def test_unknown_sweep_field_raises_with_suggestion(self):
        with pytest.raises(KeyError, match=r"num_wavelegnths.*did you mean"):
            ScenarioSpec(name="demo", title="t", sweep={"num_wavelegnths": (1, 2)})

    def test_scalar_sweep_axis_raises(self):
        with pytest.raises(TypeError, match="sequence of candidate values"):
            ScenarioSpec(name="demo", title="t", sweep={"core_height": 4})

    def test_string_sweep_axis_raises(self):
        with pytest.raises(TypeError, match="sequence of candidate values"):
            ScenarioSpec(name="demo", title="t", sweep={"core_height": "248"})

    def test_empty_sweep_axis_raises(self):
        with pytest.raises(ValueError, match="no candidate values"):
            ScenarioSpec(name="demo", title="t", sweep={"core_height": ()})

    def test_unknown_template_raises(self):
        with pytest.raises(KeyError, match="architecture template"):
            ScenarioSpec(name="demo", title="t", templates=("tempoo",))

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="search strategy"):
            ScenarioSpec(name="demo", title="t", strategy="genetic")

    def test_unknown_objective_raises(self):
        with pytest.raises(KeyError, match="objective"):
            ScenarioSpec(name="demo", title="t", objectives=("energy_j",))

    def test_bad_name_raises(self):
        with pytest.raises(ValueError, match="identifier-like"):
            ScenarioSpec(name="", title="t")

    def test_arch_and_sim_config_helpers_apply_overrides(self):
        spec = ScenarioSpec(
            name="demo", title="t",
            config_overrides={"num_tiles": 4},
            sim_overrides={"include_memory": False},
        )
        assert spec.arch_config().num_tiles == 4
        assert spec.arch_config(core_width=8).core_width == 8
        assert spec.sim_config().include_memory is False

    def test_resolve_params_rejects_unknown_with_suggestion(self):
        spec = ScenarioSpec(name="demo", title="t", params={"num_layers": 4})
        with pytest.raises(KeyError, match=r"num_layer.*did you mean 'num_layers'"):
            spec.resolve_params({"num_layer": 2})

    def test_resolve_params_coerces_param_strings(self):
        # `--param num_layers=2` arrives as a string.
        spec = ScenarioSpec(name="demo", title="t", params={"num_layers": 4})
        assert spec.resolve_params() == {"num_layers": 4}
        assert spec.resolve_params({"num_layers": "2"}) == {"num_layers": 2}
        with pytest.raises(ValueError, match="expects a int"):
            spec.resolve_params({"num_layers": "many"})

    def test_the_environment_sets_no_scenario_param(self, monkeypatch):
        spec = REGISTRY.get("variation_robustness").spec
        default = REGISTRY.fingerprint("variation_robustness")
        monkeypatch.setenv("REPRO_MC_TRIALS", "3")
        assert spec.resolve_params()["trials"] == spec.params["trials"]
        assert REGISTRY.fingerprint("variation_robustness") == default


# -- registry ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_seed_benchmark_scenarios_are_registered(self, results_dir):
        stems = sorted(p.stem for p in results_dir.glob("*.txt"))
        assert stems, "no checked-in benchmark results found"
        for stem in stems:
            assert stem in REGISTRY, f"no scenario registered for {stem}.txt"

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(KeyError, match=r"did you mean 'fig6_layout'"):
            REGISTRY.get("fig6_layot")

    def test_duplicate_registration_raises(self):
        spec = REGISTRY.get("fig6_layout").spec
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(spec)(lambda ctx: None)

    def test_smoke_tag_selects_fast_subset(self):
        smoke = REGISTRY.names(tag="smoke")
        assert set(FAST_SCENARIOS) <= set(smoke)
        assert "fig8_lt_validation" not in smoke

    def test_specs_are_declarative_and_fingerprintable(self):
        for scenario in REGISTRY:
            params = scenario.spec.resolve_params()
            fp = scenario_fingerprint(scenario.spec, params, scenario.build)
            assert isinstance(fp, str) and len(fp) == 40
            # Same inputs -> same fingerprint (content addressing is stable).
            assert fp == scenario_fingerprint(scenario.spec, params, scenario.build)

    def test_params_change_the_fingerprint(self):
        base = REGISTRY.fingerprint("fig8_lt_validation")
        other = REGISTRY.fingerprint("fig8_lt_validation", {"num_layers": 1})
        assert base != other

    def test_numerics_knobs_key_the_fingerprint(self, monkeypatch):
        # Numerics modes change the address; execution shape does not.
        base = REGISTRY.fingerprint("variation_robustness")
        monkeypatch.setenv("REPRO_POOL", "warm")
        assert REGISTRY.fingerprint("variation_robustness") == base
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert REGISTRY.fingerprint("variation_robustness") != base

    def test_the_scenario_timing_harness_is_gone(self):
        # perfbench/ is the one benchmark; the package exports no timer.
        import importlib.util

        import repro.scenarios

        assert importlib.util.find_spec("repro.scenarios.bench") is None
        for name in ("DEFAULT_BENCH_PATH", "bench_scenarios", "check_speedups",
                     "time_scenario", "write_bench_report"):
            assert not hasattr(repro.scenarios, name), name
            assert name not in repro.scenarios.__all__


# -- execution + store ------------------------------------------------------------------


@pytest.fixture()
def results_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestRunAndStore:
    def test_run_fills_identity_and_metrics_are_json_canonical(self):
        result = run_scenario("fig6_layout")
        assert result.name == "fig6_layout"
        assert result.fingerprint
        assert not result.from_store
        assert result.metrics == json.loads(json.dumps(result.metrics))

    def test_store_round_trip_equals_in_memory_result(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        live = run_scenario("fig6_layout", store=store)
        reloaded = store.load(live.name, live.fingerprint)
        assert reloaded is not None
        assert reloaded.from_store
        assert reloaded.table == live.table
        assert reloaded.metrics == live.metrics
        assert reloaded.params == live.params
        # The reloaded result passes the same qualitative checks.
        REGISTRY.verify("fig6_layout", reloaded)

    def test_second_run_is_a_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_scenario("table1_taxonomy", store=store)
        second = run_scenario("table1_taxonomy", store=store)
        assert not first.from_store
        assert second.from_store
        assert second.table == first.table

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text, fp: text[: len(text) // 2],
            lambda text, fp: "not json at all",
            lambda text, fp: "[]",
            lambda text, fp: '"x"',
            lambda text, fp: json.dumps({"fingerprint": fp}),
        ],
        ids=["truncated", "not-json", "list", "string", "no-table"],
    )
    def test_corrupt_artifact_is_a_miss_and_gets_overwritten(self, tmp_path, corrupt):
        store = ResultStore(tmp_path / "store")
        first = run_scenario("table1_taxonomy", store=store)
        path = store.path_for(first.name, first.fingerprint)
        path.write_text(corrupt(path.read_text(), first.fingerprint))
        assert store.load(first.name, first.fingerprint) is None
        store.entries()  # listing the store must not trip over the artifact
        again = run_scenario("table1_taxonomy", store=store)
        assert not again.from_store
        assert again.table == first.table
        reloaded = store.load(first.name, first.fingerprint)
        assert reloaded is not None and reloaded.table == first.table

    def test_force_bypasses_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_scenario("table1_taxonomy", store=store)
        again = run_scenario("table1_taxonomy", store=store, force=True)
        assert not again.from_store

    def test_throughput_mode_artifact_never_serves_a_default_run(
        self, tmp_path, monkeypatch
    ):
        """The numerics knobs key the store: a table computed under
        float32 must miss on a default-mode run, never be served."""
        store = ResultStore(tmp_path / "store")
        params = {"trials": 4}
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        fast = run_scenario("variation_robustness", store=store, params=params)
        assert run_scenario("variation_robustness", store=store, params=params).from_store
        monkeypatch.delenv("REPRO_DTYPE")
        reference = run_scenario("variation_robustness", store=store, params=params)
        assert not reference.from_store
        assert reference.fingerprint != fast.fingerprint
        assert reference.table == run_scenario(
            "variation_robustness", params=params
        ).table

    def test_different_params_address_different_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        a = run_scenario("fig11_heterogeneous", store=store,
                         params={"width_multiplier": 0.1})
        b = run_scenario("fig11_heterogeneous", store=store,
                         params={"width_multiplier": 0.15})
        assert a.fingerprint != b.fingerprint
        assert store.load("fig11_heterogeneous", a.fingerprint) is not None
        assert store.load("fig11_heterogeneous", b.fingerprint) is not None

    def test_store_entries_lists_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_scenario("fig6_layout", store=store)
        entries = store.entries()
        assert [e["name"] for e in entries] == ["fig6_layout"]
        assert entries[0]["table"]


class TestBatchRunner:
    def test_batch_shares_one_cache_and_persists(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = BatchRunner(store=store).run(FAST_SCENARIOS)
        assert report.ok
        assert not report.all_from_store
        assert report.engine_passes > 0
        assert {item.name for item in report.items} == set(FAST_SCENARIOS)

    def test_repeated_batch_hits_store_and_runs_no_engine_pass(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = BatchRunner(store=store).run(FAST_SCENARIOS)
        second = BatchRunner(store=store).run(FAST_SCENARIOS)
        assert first.ok and second.ok
        assert second.all_from_store
        assert second.engine_passes == 0, (
            "a store-served batch must not re-run any engine pass"
        )
        for item in second.items:
            assert item.result.table == first.item(item.name).result.table

    def test_parallel_batch_matches_serial(self, tmp_path):
        serial = BatchRunner(store=None).run(FAST_SCENARIOS)
        parallel = BatchRunner(store=None, backend="processes", jobs=2).run(
            FAST_SCENARIOS
        )
        assert serial.ok and parallel.ok
        for a, b in zip(serial.items, parallel.items):
            assert a.name == b.name
            assert a.result.table == b.result.table

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            BatchRunner().run(["fig6_layout", "nope"])

    def test_build_error_is_captured_per_item(self, tmp_path, monkeypatch):
        scenario = REGISTRY.get("fig6_layout")
        monkeypatch.setattr(
            scenario, "build", lambda ctx: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        report = BatchRunner().run(["fig6_layout", "table1_taxonomy"])
        assert not report.ok
        assert report.item("fig6_layout").error == "RuntimeError: boom"
        assert report.item("table1_taxonomy").ok


class TestEnginePassObserver:
    def test_observer_sees_every_pass_of_a_run(self):
        from repro.arch.templates import build_tempo
        from repro.core.engine import EvaluationEngine
        from repro.dataflow.gemm import GEMMWorkload

        seen = []
        with observe_passes(lambda name, engine, elapsed_s: seen.append(name)):
            EvaluationEngine(build_tempo(), cache=EvaluationCache(enabled=False)).run(
                GEMMWorkload("g", m=8, k=8, n=8)
            )
        assert seen == [
            "route", "map", "memory", "link_budget", "area", "layer_analysis",
            "aggregate",
        ]
        # Observers are gone after the with-block.
        seen.clear()
        EvaluationEngine(build_tempo(), cache=EvaluationCache(enabled=False)).run(
            GEMMWorkload("g2", m=8, k=8, n=8)
        )
        assert seen == []
