"""Tests for the staged EvaluationEngine, its cache and the Simulator facade."""

import dataclasses

import numpy as np
import pytest

from repro import SimulationConfig, Simulator
from repro.arch import ArchitectureConfig
from repro.arch.templates import build_scatter, build_tempo
from repro.core.cache import (
    CacheStats,
    EvaluationCache,
    canonical_value,
    fingerprint,
    workload_fingerprint,
)
from repro.core.engine import (
    AggregatePass,
    EvaluationEngine,
    LayerAnalysisPass,
    LinkBudgetPass,
    MapPass,
    MemoryPass,
    RoutePass,
    rebind_architecture,
    resolve_architecture,
)
from repro.dataflow.gemm import GEMMWorkload
from repro.explore import DesignSpace, DesignSpaceExplorer


def paper_like_workload(seed: int = 0) -> GEMMWorkload:
    rng = np.random.default_rng(seed)
    return GEMMWorkload(
        "w", m=64, k=16, n=32,
        weight_values=rng.normal(0, 0.25, size=(16, 32)),
        input_values=rng.normal(0, 0.5, size=(64, 16)),
    )


def result_signature(result):
    """Value-exact signature of a simulation result for equality checks."""
    return (
        tuple(sorted(result.energy_breakdown_pj.items())),
        tuple(sorted(result.area_breakdown_mm2.items())),
        result.total_cycles,
        result.total_time_ns,
        {name: lb.total_laser_electrical_power_mw for name, lb in result.link_budgets.items()},
    )


class TestEvaluationCache:
    def test_hit_miss_accounting(self):
        cache = EvaluationCache()
        calls = []
        assert cache.get_or_compute("s", "k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("s", "k", lambda: calls.append(1) or 99) == 41
        assert len(calls) == 1
        assert cache.stats["s"].hits == 1
        assert cache.stats["s"].misses == 1
        assert cache.stats["s"].hit_rate == 0.5

    def test_disabled_cache_always_recomputes(self):
        cache = EvaluationCache(enabled=False)
        values = iter([1, 2])
        assert cache.get_or_compute("s", "k", lambda: next(values)) == 1
        assert cache.get_or_compute("s", "k", lambda: next(values)) == 2
        assert len(cache) == 0
        assert cache.stats["s"].misses == 2

    def test_clear_resets(self):
        cache = EvaluationCache()
        cache.get_or_compute("s", "k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {}

    def test_max_entries_evicts_oldest(self):
        cache = EvaluationCache(max_entries=2)
        cache.get_or_compute("s", 1, lambda: "a")
        cache.get_or_compute("s", 2, lambda: "b")
        cache.get_or_compute("s", 3, lambda: "c")
        assert len(cache) == 2
        # Key 1 was evicted: recomputing counts a miss.
        cache.get_or_compute("s", 1, lambda: "a2")
        assert cache.stats["s"].misses == 4

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_lru_hit_promotes_entry(self):
        cache = EvaluationCache(max_entries=2)
        cache.get_or_compute("s", 1, lambda: "a")
        cache.get_or_compute("s", 2, lambda: "b")
        # Touch key 1: it becomes most-recent, so inserting key 3 drops key 2.
        cache.get_or_compute("s", 1, lambda: "a-stale")
        cache.get_or_compute("s", 3, lambda: "c")
        calls = []
        assert cache.get_or_compute("s", 1, lambda: calls.append(1) or "a2") == "a"
        assert calls == []
        assert cache.get_or_compute("s", 2, lambda: "b2") == "b2"

    def test_hit_probes_an_unbounded_store_once(self):
        operations = []

        class Store(dict):
            def get(self, *args):
                operations.append("get")
                return super().get(*args)

            def __contains__(self, key):
                operations.append("in")
                return super().__contains__(key)

            def __getitem__(self, key):
                operations.append("getitem")
                return super().__getitem__(key)

            def __setitem__(self, key, value):
                operations.append("set")
                super().__setitem__(key, value)

            def __delitem__(self, key):
                operations.append("del")
                super().__delitem__(key)

            def pop(self, *args):
                operations.append("pop")
                return super().pop(*args)

        cache = EvaluationCache()
        cache.get_or_compute("s", 1, lambda: "a")
        cache.get_or_compute("s", 2, lambda: "b")
        cache._store = Store(cache._store)
        assert cache.lookup("s", 1) == (True, "a")
        assert operations == ["get"]
        # No recency bookkeeping without a bound: insertion order stands.
        assert list(cache._store) == [("s", 1), ("s", 2)]
        # A stored None is a hit, not a miss.
        cache.store("s", 3, None)
        assert cache.lookup("s", 3) == (True, None)
        assert (cache.stats["s"].hits, cache.stats["s"].misses) == (2, 2)

    def test_bounded_cache_evicts_least_recently_used_with_same_stats(self):
        cache = EvaluationCache(max_entries=3)
        for key in (1, 2, 3):
            cache.get_or_compute("s", key, lambda: key)
        # Hits on 1 then 2 leave 3 least recently used.
        assert cache.lookup("s", 1) == (True, 1)
        assert cache.lookup("s", 2) == (True, 2)
        assert list(cache._store) == [("s", 3), ("s", 1), ("s", 2)]
        cache.get_or_compute("t", 4, lambda: 4)
        assert list(cache._store) == [("s", 1), ("s", 2), ("t", 4)]
        assert cache.lookup("s", 3) == (False, None)
        assert cache.lookup("s", 1) == (True, 1)
        stats = {k: (v.hits, v.misses, v.evictions) for k, v in cache.stats.items()}
        assert stats == {"s": (3, 4, 1), "t": (0, 1, 0)}

    def test_evictions_counted_against_evicted_stage(self):
        cache = EvaluationCache(max_entries=1)
        cache.get_or_compute("alpha", 1, lambda: "a")
        cache.get_or_compute("beta", 1, lambda: "b")
        assert cache.stats["alpha"].evictions == 1
        assert cache.stats["beta"].evictions == 0

    def test_max_entries_defaults_from_knob(self):
        from repro.core.knobs import forced_env

        with forced_env("REPRO_CACHE_MAX_ENTRIES", "3"):
            cache = EvaluationCache()
        assert cache.max_entries == 3
        for key in range(5):
            cache.get_or_compute("s", key, lambda: key)
        assert len(cache) == 3
        assert cache.stats["s"].evictions == 2


class TestCanonicalHashing:
    def test_scalars_pass_through(self):
        assert canonical_value(3) == 3
        assert canonical_value("x") == "x"
        assert canonical_value(2.5) == 2.5

    def test_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_ndarray_value_exact(self):
        a = np.arange(6, dtype=float)
        b = np.arange(6, dtype=float)
        assert fingerprint(a) == fingerprint(b)
        b[3] += 1e-12
        assert fingerprint(a) != fingerprint(b)

    def test_c_contiguous_key_is_pinned(self):
        # Golden keys: a change to the C-order rendering would re-key every
        # cached entry and stored digest, so it must fail here first.
        assert canonical_value(np.arange(6, dtype=float).reshape(2, 3)) == (
            "ndarray", (2, 3), "float64", "431f35234d8181ad8a04ca20929785ba6909bc97",
        )
        assert canonical_value(np.array(2.5)) == (
            "ndarray", (1,), "float64", "54c68fbaf5ddba3d7d0b42622c92276d7bd228b6",
        )

    def test_f_layout_never_shares_a_key_with_same_bytes(self):
        c_order = np.arange(6, dtype=float).reshape(2, 3)
        f_order = np.arange(6, dtype=float).reshape(3, 2).T
        assert f_order.flags.f_contiguous and not f_order.flags.c_contiguous
        assert c_order.shape == f_order.shape
        assert bytes(memoryview(f_order.T)) == c_order.tobytes()
        assert canonical_value(f_order) != canonical_value(c_order)

    def test_equal_arrays_in_one_layout_share_a_key(self):
        weights = np.random.default_rng(3).normal(size=(4, 5))
        assert canonical_value(weights.T) == canonical_value(weights.copy().T)
        assert canonical_value(weights) == canonical_value(weights.copy())

    def test_strided_view_keys_as_its_contiguous_copy(self):
        base = np.arange(40, dtype=float).reshape(5, 8)
        strided = base[::2, 1::3]
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        assert canonical_value(strided) == canonical_value(np.ascontiguousarray(strided))

    def test_object_array_keys_on_element_values(self):
        # An object array's buffer holds pointers: mutating a held list keeps
        # the pointer, and equal floats may live at different addresses.
        held = [1.0, 2.0]
        boxed = np.empty(2, dtype=object)
        boxed[0], boxed[1] = held, "x"
        before = canonical_value(boxed)
        held.append(3.0)
        assert canonical_value(boxed) != before

        first, second = np.empty(2, dtype=object), np.empty(2, dtype=object)
        first[:] = [float("1.5"), float("2.5")]
        second[:] = [float("1.5"), float("2.5")]
        assert first[0] is not second[0]
        assert canonical_value(first) == canonical_value(second)
        assert canonical_value(first) == ("ndarray", (2,), "object", (1.5, 2.5))

    def test_dataclass_fields_hashed(self):
        c1 = ArchitectureConfig(core_height=4)
        c2 = ArchitectureConfig(core_height=4)
        c3 = ArchitectureConfig(core_height=8)
        assert fingerprint(c1) == fingerprint(c2)
        assert fingerprint(c1) != fingerprint(c3)

    def test_workload_fingerprint_covers_values(self):
        w1 = paper_like_workload(0)
        w2 = paper_like_workload(0)
        w3 = paper_like_workload(1)
        assert workload_fingerprint(w1) == workload_fingerprint(w2)
        assert workload_fingerprint(w1) != workload_fingerprint(w3)
        # memoized on the object after first computation
        assert getattr(w1, "_repro_fingerprint") == workload_fingerprint(w1)


class TestEngineFacadeEquivalence:
    def test_facade_matches_cached_engine(self, tempo_arch):
        workload = paper_like_workload()
        facade = Simulator(tempo_arch).run(workload)
        engine = EvaluationEngine(tempo_arch, cache=EvaluationCache())
        cached = engine.run(workload)
        assert result_signature(facade) == result_signature(cached)
        # A second run through the same engine is served from cache, identically.
        again = engine.run(workload)
        assert result_signature(again) == result_signature(cached)

    def test_heterogeneous_run_through_engine(self):
        from repro.arch.architecture import HeterogeneousArchitecture
        from repro.arch.templates import build_mzi_mesh

        system = HeterogeneousArchitecture(name="hybrid")
        system.add("scatter", build_scatter())
        system.add("mzi_mesh", build_mzi_mesh())
        workloads = [
            GEMMWorkload("conv1", m=64, k=27, n=16, layer_type="conv"),
            GEMMWorkload("fc1", m=1, k=64, n=10, layer_type="linear"),
        ]
        engine = EvaluationEngine(
            system, type_rules={"conv": "scatter", "linear": "mzi_mesh"}
        )
        result = engine.run(workloads)
        assert result.layer("conv1").arch_name == "scatter"
        assert result.layer("fc1").arch_name == "mzi_mesh"

    def test_custom_pipeline_without_aggregate(self, tempo_arch):
        engine = EvaluationEngine(
            tempo_arch,
            cache=EvaluationCache(),
            passes=(RoutePass, MapPass, MemoryPass, LinkBudgetPass),
        )
        with pytest.raises(RuntimeError):
            engine.run(paper_like_workload())
        ctx = engine.run_context(paper_like_workload())
        assert ctx.mappings and ctx.memory_report is not None
        assert ctx.link_budgets and not ctx.area_reports

    def test_empty_workloads_rejected(self, tempo_arch):
        with pytest.raises(ValueError):
            EvaluationEngine(tempo_arch).run([])


class TestRebind:
    def test_rebound_arch_matches_fresh_build(self):
        base = build_tempo(config=ArchitectureConfig(num_tiles=2, cores_per_tile=2))
        target = ArchitectureConfig(
            num_tiles=2, cores_per_tile=2, core_height=8, core_width=2
        )
        rebound = rebind_architecture(base, target, "tempo")
        fresh = build_tempo(config=target, name="tempo")
        workload = paper_like_workload()
        r1 = Simulator(rebound).run(workload)
        r2 = Simulator(fresh).run(workload)
        assert result_signature(r1) == result_signature(r2)

    def test_rebind_rejects_structural_change(self):
        base = build_tempo()
        target = dataclasses.replace(base.config, num_wavelengths=4)
        with pytest.raises(ValueError, match="num_wavelengths"):
            rebind_architecture(base, target)

    def test_resolve_architecture_reuses_structural_build(self):
        cache = EvaluationCache()
        c1 = ArchitectureConfig(core_height=2)
        c2 = ArchitectureConfig(core_height=8)
        a1 = resolve_architecture(build_tempo, c1, cache=cache)
        a2 = resolve_architecture(build_tempo, c2, cache=cache)
        assert cache.stats["build"].misses == 1
        assert cache.stats["build"].hits == 1
        assert a1.library is a2.library
        assert a2.config.core_height == 8

    def test_resolve_without_cache_builds_directly(self):
        arch = resolve_architecture(build_tempo, ArchitectureConfig(), cache=None)
        assert arch.config == ArchitectureConfig()

    def test_same_qualname_builders_do_not_collide(self):
        from repro.arch.templates import build_mzi_mesh

        def wrap(builder):
            return lambda **kwargs: builder(**kwargs)  # identical __qualname__

        cache = EvaluationCache()
        config = ArchitectureConfig()
        tempo = resolve_architecture(wrap(build_tempo), config, cache=cache)
        mesh = resolve_architecture(wrap(build_mzi_mesh), config, cache=cache)
        assert tempo.taxonomy is not mesh.taxonomy
        assert cache.stats["build"].misses == 2
        assert cache.stats["build"].hits == 0


class TestCriticalPathMemo:
    def test_chain_fast_path_matches_dag(self, tempo_arch):
        engine = EvaluationEngine(tempo_arch, cache=EvaluationCache())
        fast = engine.link_budget_for(tempo_arch).critical_path
        reference = tempo_arch.critical_path()
        assert fast.instances == reference.instances
        assert fast.insertion_loss_db == reference.insertion_loss_db

    def test_link_report_matches_seed_analyzer(self, tempo_arch):
        engine = EvaluationEngine(tempo_arch, cache=EvaluationCache())
        cached = engine.link_budget_for(tempo_arch)
        reference = engine.link_budget_analyzer.analyze(tempo_arch)
        assert cached.insertion_loss_db == reference.insertion_loss_db
        assert cached.total_laser_electrical_power_mw == reference.total_laser_electrical_power_mw
        assert cached.pd_sensitivity_dbm == reference.pd_sensitivity_dbm
        assert cached.extinction_ratio_db == reference.extinction_ratio_db
        assert cached.num_sources == reference.num_sources


class TestSweepCaching:
    """Cache hit/miss accounting across sweeps (the tentpole's contract)."""

    def make_explorer(self, **kwargs):
        return DesignSpaceExplorer(
            build_tempo,
            [paper_like_workload()],
            base_config=ArchitectureConfig(num_tiles=1, cores_per_tile=1),
            **kwargs,
        )

    def test_single_field_sweep_reuses_invariant_passes(self, monkeypatch):
        zero_fraction = GEMMWorkload._zero_fraction
        sparsity_calls = []

        def counted(workload):
            sparsity_calls.append(workload.name)
            return zero_fraction(workload)

        monkeypatch.setattr(GEMMWorkload, "_zero_fraction", counted)
        explorer = self.make_explorer()
        space = DesignSpace({"core_height": [2, 4, 8, 16]})
        result = explorer.explore(space)
        stats = result.cache_stats
        # One structural template build; every other point rebinds it.
        assert stats["build"].misses == 1
        assert stats["build"].hits == 3
        # The node floorplan never changes across the sweep.
        assert stats["floorplan"].misses == 1
        assert stats["floorplan"].hits == 3
        # Workload sparsity is computed once for the whole sweep.
        assert sparsity_calls == ["w"]
        # Every point is a distinct design, so the point stage only misses.
        assert stats["design_point"].misses == 4
        assert stats["design_point"].hits == 0
        # core_height changes the broadcast losses: critical path re-runs per point.
        assert stats["critical_path"].misses == 4

    def test_wavelength_sweep_shares_critical_path(self):
        explorer = self.make_explorer()
        result = explorer.explore(DesignSpace({"num_wavelengths": [1, 2, 4]}))
        stats = result.cache_stats
        # TeMPO's optical losses do not depend on the wavelength count...
        assert stats["critical_path"].misses == 1
        assert stats["critical_path"].hits == 2
        # ...but the device library does, so each point is a structural build.
        assert stats["build"].misses == 3

    def test_revisit_is_a_point_level_hit(self):
        explorer = self.make_explorer()
        explorer.evaluate({"core_height": 4})
        explorer.evaluate({"core_height": 4})
        assert explorer.cache.stats["design_point"].hits == 1
        assert explorer.cache.stats["design_point"].misses == 1

    def test_simulation_config_change_invalidates(self):
        shared = EvaluationCache()
        kwargs = dict(cache=shared)
        with_mem = DesignSpaceExplorer(
            build_tempo, [paper_like_workload()],
            sim_config=SimulationConfig(include_memory=True), **kwargs,
        )
        without_mem = DesignSpaceExplorer(
            build_tempo, [paper_like_workload()],
            sim_config=SimulationConfig(include_memory=False), **kwargs,
        )
        p1 = with_mem.evaluate({"core_height": 4})
        p2 = without_mem.evaluate({"core_height": 4})
        # Same design point, different simulation config: both sides computed.
        assert shared.stats["design_point"].misses == 2
        assert shared.stats["design_point"].hits == 0
        assert p1.energy_uj > p2.energy_uj  # memory energy included vs not

    def test_workload_change_invalidates(self):
        shared = EvaluationCache()
        e1 = DesignSpaceExplorer(build_tempo, [paper_like_workload(0)], cache=shared)
        e2 = DesignSpaceExplorer(build_tempo, [paper_like_workload(1)], cache=shared)
        e1.evaluate({"core_height": 4})
        e2.evaluate({"core_height": 4})
        assert shared.stats["design_point"].misses == 2


class TestDeterminism:
    SPACE = DesignSpace(
        {"core_height": [2, 4, 8], "core_width": [2, 4, 8], "num_wavelengths": [1, 4]}
    )

    def make_explorer(self, **kwargs):
        return DesignSpaceExplorer(
            build_tempo,
            [paper_like_workload()],
            base_config=ArchitectureConfig(num_tiles=2, cores_per_tile=2),
            **kwargs,
        )

    def test_cache_on_off_bit_identical(self):
        r_off = self.make_explorer(cache=False).explore(self.SPACE)
        r_on = self.make_explorer(cache=True).explore(self.SPACE)
        assert r_on.points == r_off.points

    def test_serial_parallel_bit_identical(self):
        serial = self.make_explorer(cache=True).explore(self.SPACE)
        parallel = self.make_explorer(
            cache=True, backend="processes", max_workers=2
        ).explore(self.SPACE)
        assert serial.points == parallel.points

    def test_parallel_with_shared_cold_cache_matches(self):
        parallel = self.make_explorer(cache=True).explore(
            self.SPACE, backend="processes", max_workers=2
        )
        reference = self.make_explorer(cache=False).explore(self.SPACE)
        assert parallel.points == reference.points


class TestCachedAggregates:
    """SimulationResult aggregate views are merged once (functools.cached_property)."""

    def test_energy_breakdown_cached_and_identical(self, tempo_arch):
        sim = Simulator(tempo_arch)
        workloads = [GEMMWorkload(f"g{i}", m=32, k=16, n=32) for i in range(3)]
        result = sim.run(workloads)
        first = result.energy_breakdown_pj
        assert result.energy_breakdown_pj is first  # cached, not re-merged
        fresh = sim.run(workloads)
        assert fresh.energy_breakdown_pj == first
        assert result.total_energy_pj == sum(first.values())
        assert result.total_power_w == pytest.approx(
            sum(result.average_power_mw.values()) / 1e3
        )

    def test_area_breakdown_cached(self, tempo_arch):
        result = Simulator(tempo_arch).run_gemm(m=16, k=16, n=16)
        assert result.area_breakdown_mm2 is result.area_breakdown_mm2
        assert result.total_area_mm2 == sum(result.area_breakdown_mm2.values())


def _with_operands(seed: int, sparsity: float = 0.0) -> GEMMWorkload:
    """Same shape and bits as ``paper_like_workload``, different operand values."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0, 0.25, size=(16, 32))
    weights[rng.random(weights.shape) < sparsity] = 0.0
    return GEMMWorkload(
        "w", m=64, k=16, n=32,
        weight_values=weights,
        input_values=rng.normal(0, 0.5, size=(64, 16)),
    )


class TestShapeKeyedPasses:
    """``map`` and ``memory`` key on the GEMM shape, never on operand bytes."""

    SHAPE_FIELDS = ("m", "n", "k", "input_bits", "weight_bits", "output_bits")

    def test_map_key_covers_every_shape_field(self, tempo_arch):
        from repro.dataflow.mapping import DataflowMapper

        cache = EvaluationCache()
        mapper = DataflowMapper(cache=cache)
        base = GEMMWorkload("g", m=64, n=32, k=16, input_bits=8, weight_bits=8, output_bits=8)
        mapper.map(base, tempo_arch)
        for i, name in enumerate(self.SHAPE_FIELDS):
            variant = dataclasses.replace(base, **{name: getattr(base, name) // 2})
            mapping = mapper.map(variant, tempo_arch)
            assert cache.stats["map"].misses == i + 2, name
            assert cache.stats["map"].hits == 0, name
            fresh = DataflowMapper().map(variant, tempo_arch)
            assert mapping.bytes_per_cycle == fresh.bytes_per_cycle, name
            assert mapping.traffic_bits == fresh.traffic_bits, name

    def test_same_shape_workloads_share_mappings_not_operands(self, scatter_arch):
        config = SimulationConfig(data_aware=True)
        cache = EvaluationCache()
        engine = EvaluationEngine(scatter_arch, config, cache=cache)
        workloads = [_with_operands(1), _with_operands(2, sparsity=0.5)]
        for i, workload in enumerate(workloads):
            result = engine.run(workload)
            assert cache.stats["map"].misses == 1
            assert cache.stats["map"].hits == i
            assert cache.stats["memory"].hits == i
            (layer,) = result.layers
            assert layer.mapping.workload is workload
            alone = Simulator(scatter_arch, config).run(workload)
            assert result.energy_breakdown_pj == alone.energy_breakdown_pj
            assert result.total_time_ns == alone.total_time_ns
        # The operands differ, so data-aware energy must too.
        first = Simulator(scatter_arch, config).run(workloads[0])
        assert first.energy_breakdown_pj != result.energy_breakdown_pj

    def test_transformer_run_hashes_no_operand_bytes(self, monkeypatch):
        import hashlib

        from repro.arch.templates import build_lightening_transformer
        from repro.onn import ONNConversionConfig, convert_to_onn, extract_workloads
        from repro.onn.models import build_bert_base_image

        model = build_bert_base_image(
            image_size=32, num_layers=1, num_classes=10, rng=np.random.default_rng(0)
        )
        convert_to_onn(model, ONNConversionConfig(default_ptc="lightening_transformer"))
        workloads = extract_workloads(model, np.random.default_rng(1).normal(size=(3, 32, 32)))
        arch = build_lightening_transformer()

        sha1 = hashlib.sha1
        hashed_arrays = []

        def spy(data=b"", **kwargs):
            if isinstance(data, np.ndarray):
                hashed_arrays.append(data.nbytes)
            return sha1(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha1", spy)
        cache = EvaluationCache()
        result = EvaluationEngine(arch, SimulationConfig(data_aware=True), cache=cache).run(
            workloads
        )
        assert len(result.layers) == len(workloads)
        assert cache.stats["map"].hits > 0
        assert hashed_arrays == []


class TestReferenceCycles:
    """An engine and its cache are freed by reference counting alone."""

    def test_cache_dies_on_del_with_gc_disabled(self):
        import gc
        import weakref

        arch = build_tempo(ArchitectureConfig(num_tiles=1, cores_per_tile=1))
        cache = EvaluationCache()
        engine = EvaluationEngine(arch, cache=cache)
        engine.run([paper_like_workload()])
        cache_ref, engine_ref = weakref.ref(cache), weakref.ref(engine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del engine, cache
            assert engine_ref() is None
            assert cache_ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_explore_leaves_no_cyclic_garbage(self):
        import collections
        import gc

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            explorer = DesignSpaceExplorer(
                build_tempo,
                [paper_like_workload(), paper_like_workload(1)],
                base_config=ArchitectureConfig(num_tiles=1, cores_per_tile=1),
            )
            result = explorer.explore(
                DesignSpace({"core_height": [2, 4], "num_wavelengths": [1, 2]})
            )
            result.pareto_front()
            assert len(result.points) == 4
            del explorer, result
            gc.collect()
            leftovers = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not leftovers, leftovers.most_common(10)
