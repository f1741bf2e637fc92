"""The per-run rule table, the per-structure plans and compiled scaling rules.

Bit identity against the loops they replaced (``tests/oracles.py``) -- the
energy plan, and the map, link-budget, area and latency passes priced from
one plan per structure over mixed-structure and heterogeneous batches --, the
pickle contract of compiled rules, a spy showing that a design point
evaluates each scaling rule at most once per parameter overlay, and the
cache traffic of the 192-point ``dse_large_grid`` sweep.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from oracles import (
    area_report_reference,
    energy_report_reference,
    eval_tree,
    latency_report_reference,
    link_budget_reference,
)
from repro.arch.architecture import ArchitectureConfig, HeterogeneousArchitecture
from repro.arch.instance import Activity
from repro.arch.templates import TEMPLATE_BUILDERS, build_tempo
from repro.core.area import AreaAnalyzer
from repro.core.cache import EvaluationCache
from repro.core.config import SimulationConfig
from repro.core.energy import EnergyAnalyzer, EnergyItem
from repro.core.engine import EvaluationContext, EvaluationEngine, rebind_architecture
from repro.core.latency import LatencyAnalyzer
from repro.core.link_budget import LinkBudgetAnalyzer
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.dataflow.gemm import GEMMWorkload
from repro.dataflow.mapping import DataflowMapper
from repro.explore import DesignSpace, DesignSpaceExplorer
from repro.netlist.scaling import ScalingRule

# -- compiled rules against the tree walk -------------------------------------------

#: Every allowed operator and function, alone and nested.
EXPRESSIONS = (
    "R + C", "R - C", "R * C", "R / C", "R // C", "R % C", "R ** 2", "C ** 0.5",
    "+R", "-R", "-(R - C)", "min(R, C)", "max(R, C, H)", "ceil(R / C)",
    "floor(R / C)", "abs(C - R)", "log2(R)", "sqrt(H)", "4", "0.5", "7 // 2",
    "R*C*H*(H-1)/2", "1/max(T_ACC, 1)", "max(C*W-1, 1)", "ceil(log2(max(H, 2)))",
    "2.5*R - -C % 3 + floor(sqrt(W) ** 3) // 2", "min(ceil(R/3), abs(-W)) * LAMBDA",
)


def _random_params(rng: np.random.Generator) -> dict:
    params = {}
    for name in ("R", "C", "H", "W", "LAMBDA", "T_ACC"):
        if rng.random() < 0.5:
            params[name] = float(rng.integers(1, 65))
        else:
            params[name] = float(rng.uniform(0.25, 64.0))
    return params


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (a == b and type(a) is type(b))


class TestCompiledRules:
    def test_bit_identical_to_tree_walk_on_random_params(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            params = _random_params(rng)
            for expression in EXPRESSIONS:
                compiled = ScalingRule(expression).evaluate(params)
                assert _same(compiled, eval_tree(expression, params)), (expression, params)

    def test_integer_params_evaluate_as_floats(self):
        params = {"R": 3, "C": 2, "H": 5, "W": 4, "LAMBDA": 1, "T_ACC": 2}
        for expression in EXPRESSIONS:
            assert _same(ScalingRule(expression).evaluate(params), eval_tree(expression, params))

    def test_arithmetic_errors_match_the_tree_walk(self):
        params = {"R": 3.0, "C": 0.0, "H": -4.0}
        for expression in ("R / C", "R // C", "R % C", "log2(C)", "sqrt(H)"):
            with pytest.raises(Exception) as tree_error:
                eval_tree(expression, params)
            with pytest.raises(type(tree_error.value)) as compiled_error:
                ScalingRule(expression).evaluate(params)
            assert str(compiled_error.value) == str(tree_error.value)

    @pytest.mark.parametrize(
        "expression", ["R*Q", "Q*R", "max(R, Q) + Z", "ceil(Z) / Q", "-Q"]
    )
    def test_missing_parameter_message_matches(self, expression):
        params = {"R": 2.0, "C": 1.0}
        with pytest.raises(KeyError) as tree_error:
            eval_tree(expression, params)
        with pytest.raises(KeyError) as compiled_error:
            ScalingRule(expression).evaluate(params)
        assert str(compiled_error.value) == str(tree_error.value)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"'R - 5' evaluated to negative count -3\.0"):
            ScalingRule("R - 5").count({"R": 2.0})

    def test_compiled_function_is_shared_and_sandboxed(self):
        first, second = ScalingRule("R*C*H"), ScalingRule("R*C*H")
        assert first._fn is second._fn
        assert first._fn.__globals__["__builtins__"] == {}
        assert first.variables == ("C", "H", "R")


# -- pickle contract ----------------------------------------------------------------


def _rules(arch):
    for inst in arch.instances:
        yield inst.count
        yield inst.duty
        yield inst.loss_multiplier
    dataflow = arch.dataflow
    yield dataflow.m_parallel
    yield dataflow.n_parallel
    yield dataflow.k_parallel


class TestPickleContract:
    @pytest.mark.parametrize("template", sorted(TEMPLATE_BUILDERS))
    def test_architecture_round_trips_and_evaluates_identically(self, template):
        arch = TEMPLATE_BUILDERS[template]()
        clone = pickle.loads(pickle.dumps(arch))
        for t_acc in (1.0, 3.0, 8.0):
            params = dict(arch.params, T_ACC=t_acc)
            for rule, copied in zip(_rules(arch), _rules(clone)):
                assert copied.expression == rule.expression
                assert _same(copied.evaluate(params), rule.evaluate(params))
        assert clone.device_counts() == arch.device_counts()
        assert clone.loss_multipliers() == arch.loss_multipliers()

    def test_rule_pickles_as_its_expression(self):
        rule = ScalingRule("R*C*max(H-1, 1)")
        assert rule.__reduce__() == (ScalingRule, (rule.expression,))
        copied = pickle.loads(pickle.dumps(rule))
        assert copied == rule and copied._fn is rule._fn


# -- the energy plan and the area table against the per-instance loops ----------------


def _workloads():
    rng = np.random.default_rng(7)
    weights = rng.normal(0.0, 0.3, size=(40, 24))
    mask = rng.random((40, 24)) > 0.6
    return [
        GEMMWorkload(
            "dense", m=48, k=40, n=24, weight_values=weights,
            input_values=rng.normal(0.0, 0.5, size=(48, 40)),
        ),
        GEMMWorkload(
            "pruned", m=16, k=40, n=24, weight_values=np.where(mask, weights, 0.0),
            pruning_mask=mask,
        ),
        GEMMWorkload("deep", m=8, k=512, n=16),
        GEMMWorkload("shallow", m=96, k=3, n=64, weight_static=True),
    ]


def _with_overlay_rules(arch):
    """``arch`` with fractional duties and T_ACC-dependent counts on every group,
    so products that are exact at duty 1 and fixed counts are exercised too."""
    for inst in arch.instances:
        inst.duty = ScalingRule(f"({inst.duty.expression}) * 5 / (T_ACC + 6)")
        inst.count = ScalingRule(f"({inst.count.expression}) * ceil(T_ACC / 3)")
    return arch


def _assert_same_energy(report, reference):
    assert list(report.breakdown_pj.items()) == list(reference.breakdown_pj.items())
    assert report.total_time_ns == reference.total_time_ns
    assert report.data_aware == reference.data_aware


class TestEnergyPlanOracle:
    @pytest.mark.parametrize("template", sorted(TEMPLATE_BUILDERS))
    @pytest.mark.parametrize("data_aware", [True, False])
    @pytest.mark.parametrize("idle_gating", [True, False])
    @pytest.mark.parametrize("with_link", [True, False])
    @pytest.mark.parametrize("overlay_rules", [False, True])
    def test_bit_identical_to_instance_loop(
        self, template, data_aware, idle_gating, with_link, overlay_rules
    ):
        arch = TEMPLATE_BUILDERS[template]()
        if overlay_rules:
            arch = _with_overlay_rules(arch)
        config = SimulationConfig(data_aware=data_aware, include_idle_gating=idle_gating)
        analyzer = EnergyAnalyzer(config, cache=EvaluationCache())
        link = LinkBudgetAnalyzer().analyze(arch) if with_link else None
        mapper = DataflowMapper()
        resolved = arch.resolve()  # one table shared by every mapping, as in a run
        overlays = set()
        for workload in _workloads():
            mapping = mapper.map(workload, arch)
            overlays.add(mapping.temporal_accumulation)
            report = analyzer.analyze(
                arch, mapping, link_budget=link, memory_energy_pj=12.5,
                memory_static_power_mw=0.75, resolved=resolved,
            )
            reference = energy_report_reference(
                analyzer, arch, mapping, link_budget=link, memory_energy_pj=12.5,
                memory_static_power_mw=0.75,
            )
            _assert_same_energy(report, reference)
            # Without a table the analyzer builds its own, to the same bits.
            _assert_same_energy(
                analyzer.analyze(
                    arch, mapping, link_budget=link, memory_energy_pj=12.5,
                    memory_static_power_mw=0.75,
                ),
                reference,
            )
        assert len(resolved.energy_terms) == len(overlays)

    def test_matrix_reaches_reconfig_and_data_dependent_rows(self):
        config = SimulationConfig(data_aware=True)
        analyzer = EnergyAnalyzer(config)
        pcm = TEMPLATE_BUILDERS["pcm_crossbar"]()
        mapping = DataflowMapper().map(_workloads()[0], pcm)
        rows = analyzer.plan(pcm, 0.2, True, True)
        assert any(row.activity is Activity.PER_RECONFIG for row in rows)
        assert mapping.reconfig_events * mapping.forwards > 0
        mzi = TEMPLATE_BUILDERS["mzi_mesh"]()
        rows = analyzer.plan(mzi, 0.2, True, True)
        assert any(row.unit is None for row in rows)
        rows = analyzer.plan(mzi, 0.2, False, True)
        assert all(row.unit is not None for row in rows)

    @pytest.mark.parametrize("template", sorted(TEMPLATE_BUILDERS))
    def test_engine_layers_match_the_loop(self, template):
        arch = TEMPLATE_BUILDERS[template]()
        config = SimulationConfig(include_memory=False)
        engine = EvaluationEngine(arch, config, cache=EvaluationCache())
        ctx = engine.run_context(_workloads())
        link = ctx.link_budgets[arch.name]
        for layer in ctx.layers:
            reference = energy_report_reference(
                engine.energy_analyzer, arch, layer.mapping, link_budget=link
            )
            _assert_same_energy(layer.energy, reference)
        assert list(ctx.resolved) == [arch.name]


def _batch_archs(overlay_rules: bool):
    """Rebound grid points of two structures per template family, in an
    interleaved order, with some groups empty at some points.

    With ``overlay_rules`` a ``min(max(R - 1, 0), 1)`` factor removes every
    other group at one tile, and ``min(max(T_ACC - 2, 0), 1)`` zeroes every
    third group's duty below T_ACC = 3, so a label can be absent from one
    point's breakdown and present at the next.
    """
    archs = []
    for template in sorted(TEMPLATE_BUILDERS):
        for wavelengths in (1, 2):
            base = TEMPLATE_BUILDERS[template](
                ArchitectureConfig(num_wavelengths=wavelengths), name=template
            )
            if overlay_rules:
                base = _with_overlay_rules(base)
                for inst in base.instances[::2]:
                    inst.count = ScalingRule(
                        f"({inst.count.expression}) * min(max(R - 1, 0), 1)"
                    )
                for inst in base.instances[1::3]:
                    inst.duty = ScalingRule(
                        f"({inst.duty.expression}) * min(max(T_ACC - 2, 0), 1)"
                    )
            for tiles, height in ((1, 2), (2, 4), (3, 2)):
                config = dataclasses.replace(
                    base.config, num_tiles=tiles, core_height=height
                )
                archs.append(rebind_architecture(base, config, f"{template}_{tiles}_{height}"))
    return archs[::2] + archs[1::2]


class TestEnergyBatchOracle:
    """``analyze_batch`` over mixed structures and points against the loop."""

    @pytest.mark.parametrize("data_aware", [True, False])
    @pytest.mark.parametrize("idle_gating", [True, False])
    @pytest.mark.parametrize("overlay_rules", [False, True])
    def test_batch_bit_identical_to_instance_loop(self, data_aware, idle_gating, overlay_rules):
        config = SimulationConfig(data_aware=data_aware, include_idle_gating=idle_gating)
        analyzer = EnergyAnalyzer(config, cache=EvaluationCache())
        mapper = DataflowMapper()
        items, references = [], []
        for index, arch in enumerate(_batch_archs(overlay_rules)):
            resolved = arch.resolve()
            # Half the points carry a link budget: the laser row and the light
            # sources' own rows trade places between groups of one structure.
            link = LinkBudgetAnalyzer().analyze(arch) if index % 2 else None
            for number, workload in enumerate(_workloads()):
                mapping = mapper.map(workload, arch, resolved.parallel_dims)
                memory_pj = 0.0 if number == 1 else 12.5 * (index + 1)
                leakage_mw = 0.0 if number == 2 else 0.75
                items.append(
                    EnergyItem(arch, mapping, resolved, link, memory_pj, leakage_mw)
                )
                references.append(
                    energy_report_reference(
                        analyzer, arch, mapping, link_budget=link,
                        memory_energy_pj=memory_pj, memory_static_power_mw=leakage_mw,
                    )
                )
        reports = analyzer.analyze_batch(items)
        assert len(reports) == len(references)
        for report, reference in zip(reports, references):
            _assert_same_energy(report, reference)
        # Some label is absent at one point and present at another.
        labels = [set(report.breakdown_pj) for report in reports]
        assert set.union(*labels) != set.intersection(*labels)

    def test_batch_of_none_is_empty(self):
        assert EnergyAnalyzer().analyze_batch([]) == []


def _layer_signature(layer):
    return (
        layer.name,
        layer.arch_name,
        list(layer.energy.breakdown_pj.items()),
        layer.energy.total_time_ns,
        layer.energy.data_aware,
        dataclasses.astuple(layer.latency),
        [
            getattr(layer.mapping, f.name)
            for f in dataclasses.fields(layer.mapping)
            if f.name != "workload"
        ],
    )


def _result_signature(result):
    return (
        [_layer_signature(layer) for layer in result.layers],
        {name: report.breakdown_um2 for name, report in result.area_reports.items()},
        result.link_budgets,
        result.memory,
        list(result.energy_breakdown_pj.items()),
        result.total_time_ns,
        result.total_area_mm2,
    )


class TestEngineBatch:
    @pytest.mark.parametrize("include_memory", [True, False])
    def test_run_batch_equals_run_for(self, include_memory):
        config = SimulationConfig(include_memory=include_memory)
        archs = [arch for arch in _batch_archs(False) if arch.name.startswith("tempo")]
        batch_engine = EvaluationEngine(archs[0], config, cache=EvaluationCache())
        results = batch_engine.run_batch(archs, _workloads())
        for arch, result in zip(archs, results):
            alone = EvaluationEngine(arch, config, cache=EvaluationCache()).run_for(
                arch, _workloads()
            )
            assert _result_signature(result) == _result_signature(alone)
            # Each layer, memory-access sum included, against the scalar loop.
            hierarchy = result.memory.hierarchy
            for layer in result.layers:
                memory_pj = 0.0
                if include_memory:
                    memory_pj = sum(
                        hierarchy.access_energy_pj(level, bits)
                        for level, bits in layer.mapping.traffic_bits.items()
                        if bits > 0
                    )
                reference = energy_report_reference(
                    batch_engine.energy_analyzer, arch, layer.mapping,
                    link_budget=result.link_budgets[arch.name],
                    memory_energy_pj=memory_pj,
                    memory_static_power_mw=(
                        result.memory.onchip_leakage_mw if include_memory else 0.0
                    ),
                )
                _assert_same_energy(layer.energy, reference)

    def test_every_dse_large_grid_point_equals_run_for(self):
        from repro.scenarios import REGISTRY
        from repro.scenarios.workloads import large_grid_workloads

        spec = REGISTRY.get("dse_large_grid").spec
        workloads = large_grid_workloads()
        explorer = DesignSpaceExplorer(build_tempo, workloads, base_config=spec.arch_config())
        result = explorer.explore(DesignSpace.from_axes(spec.sweep))
        assert len(result.points) == 192
        cache = EvaluationCache()
        engine = None
        for point in result.points:
            config = dataclasses.replace(spec.arch_config(), **point.parameters)
            arch = build_tempo(config=config, name=f"{config.name}_dse")
            engine = engine or EvaluationEngine(arch, SimulationConfig(), cache=cache)
            alone = engine.run_for(arch, workloads)
            link = next(iter(alone.link_budgets.values()))
            assert dataclasses.astuple(point) == (
                point.parameters,
                alone.total_energy_uj,
                alone.total_time_ns,
                alone.total_area_mm2,
                alone.total_power_w,
                link.total_laser_electrical_power_mw,
                alone.energy_per_mac_pj,
                None,
                None,
            )


class TestAreaTableOracle:
    @pytest.mark.parametrize("template", sorted(TEMPLATE_BUILDERS))
    @pytest.mark.parametrize("layout_aware", [True, False])
    @pytest.mark.parametrize("with_memory", [True, False])
    def test_bit_identical_to_instance_loop(self, template, layout_aware, with_memory):
        arch = TEMPLATE_BUILDERS[template]()
        config = SimulationConfig()
        analyzer = AreaAnalyzer(config)
        memory = None
        if with_memory:
            mappings = [DataflowMapper().map(w, arch) for w in _workloads()]
            memory = MemoryAnalyzer(config).analyze(mappings, arch)
        report = analyzer.analyze(
            arch, memory_report=memory, layout_aware=layout_aware, resolved=arch.resolve()
        )
        reference = area_report_reference(
            analyzer, arch, memory_report=memory, layout_aware=layout_aware
        )
        assert list(report.breakdown_um2.items()) == list(reference.breakdown_um2.items())
        assert report.node_area_um2 == reference.node_area_um2
        assert report.node_area_naive_um2 == reference.node_area_naive_um2
        assert report.memory_area_mm2 == reference.memory_area_mm2
        assert report.layout_aware == reference.layout_aware


# -- each rule at most once per overlay per design point ------------------------------


class TestRuleEvaluationSpy:
    @pytest.mark.parametrize("cache", [True, False])
    def test_each_rule_evaluated_at_most_once_per_overlay(self, monkeypatch, cache):
        evaluate = ScalingRule.evaluate
        calls = []

        def spy(rule, params):
            calls.append((id(rule), rule.expression, tuple(sorted(params.items()))))
            return evaluate(rule, params)

        monkeypatch.setattr(ScalingRule, "evaluate", spy)
        workloads = [
            GEMMWorkload("qkv", m=64, k=48, n=96),
            GEMMWorkload("deep", m=16, k=1024, n=32),
        ]
        explorer = DesignSpaceExplorer(
            build_tempo, workloads, base_config=ArchitectureConfig(), cache=cache
        )
        space = DesignSpace({"num_tiles": [1, 2], "core_height": [2, 4]})
        result = explorer.explore(space)
        assert len(result.points) == 4
        # The points run as one engine batch, pass by pass, so calls are told
        # apart by the swept parameters they were evaluated at.
        points = {}
        for call in calls:
            params = dict(call[2])
            points.setdefault((params["R"], params["H"]), []).append(call)
        assert sorted(points) == [(1.0, 2.0), (1.0, 4.0), (2.0, 2.0), (2.0, 4.0)]
        for point_calls in points.values():
            assert len(set(point_calls)) == len(point_calls)
            # The ADC duty (1/max(T_ACC, 1)) is evaluated once per overlay the
            # point's mappings use, never once per mapping.
            duty_overlays = [c[2] for c in point_calls if c[1] == "1/max(T_ACC, 1)"]
            assert 1 <= len(duty_overlays) <= len(workloads)


# -- the mapper reads its device limits once per structure ------------------------------


class TestMapperLimits:
    def test_integration_limit_scanned_once_per_limits_miss(self, monkeypatch):
        scan = DataflowMapper._integration_limit
        calls = []

        def spy(mapper, arch):
            calls.append(arch.name)
            return scan(mapper, arch)

        monkeypatch.setattr(DataflowMapper, "_integration_limit", spy)
        workloads = [
            GEMMWorkload("qkv", m=64, k=48, n=96),
            GEMMWorkload("deep", m=16, k=1024, n=32),
        ]
        explorer = DesignSpaceExplorer(build_tempo, workloads)
        space = DesignSpace({"num_tiles": [1, 2], "core_height": [2, 4]})
        result = explorer.explore(space)
        stats = explorer.cache.stats
        assert len(result.points) == 4
        # Every map miss reuses the limits its key already holds.
        assert stats["map"].misses > stats["mapper_limits"].misses
        assert len(calls) == stats["mapper_limits"].misses


# -- map, link-budget, area and latency from one plan per structure ---------------------


def _assert_same_area(report, reference):
    assert list(report.breakdown_um2.items()) == list(reference.breakdown_um2.items())
    assert report.node_area_um2 == reference.node_area_um2
    assert report.node_area_naive_um2 == reference.node_area_naive_um2
    assert report.memory_area_mm2 == reference.memory_area_mm2
    assert report.layout_aware == reference.layout_aware


def _mapping_fields(mapping):
    return [getattr(mapping, f.name) for f in dataclasses.fields(mapping)]


def _assert_context_matches_oracles(engine, ctx):
    """Every mapping, link budget, area report and latency of ``ctx``
    against the one-at-a-time oracles."""
    hierarchy = ctx.memory_report.hierarchy if ctx.memory_report is not None else None
    routed = [(gemm, arch) for gemm, arch, _ in ctx.mappings]
    assert routed == ctx.routed
    for gemm, arch, mapping in ctx.mappings:
        assert mapping.workload is gemm
        assert _mapping_fields(mapping) == _mapping_fields(DataflowMapper().map(gemm, arch))
    for arch in ctx.distinct_archs():
        link = ctx.link_budgets[arch.name]
        assert link == link_budget_reference(engine.link_budget_analyzer, arch)
        _assert_same_area(
            ctx.area_reports[arch.name],
            area_report_reference(engine.area_analyzer, arch, ctx.memory_report),
        )
    for layer in ctx.layers:
        assert layer.latency == latency_report_reference(
            engine.latency_analyzer, layer.mapping, hierarchy
        )


_HYBRID_RULES = {"conv": "scatter", "linear": "mzi_mesh"}


def _hybrid_workloads():
    # Interleaved layer types: each context's routed list alternates between
    # its two sub-architectures, so a point maps several runs per architecture.
    return [
        GEMMWorkload("conv1", m=64, k=27, n=16, layer_type="conv"),
        GEMMWorkload("fc1", m=1, k=64, n=10, layer_type="linear"),
        GEMMWorkload("conv2", m=32, k=144, n=32, layer_type="conv"),
        GEMMWorkload("fc2", m=4, k=64, n=64, layer_type="linear"),
    ]


def _hybrid_contexts(engine):
    """Three heterogeneous systems whose sub-architectures are rebound
    points of one scatter and one MZI-mesh structure."""
    bases = {name: TEMPLATE_BUILDERS[name]() for name in _HYBRID_RULES.values()}
    contexts = []
    for tiles, height in ((1, 2), (2, 4), (3, 2)):
        system = HeterogeneousArchitecture(name=f"hybrid_{tiles}_{height}")
        for key, base in bases.items():
            config = dataclasses.replace(base.config, num_tiles=tiles, core_height=height)
            system.add(key, rebind_architecture(base, config, f"{key}_{tiles}_{height}"))
        contexts.append(
            EvaluationContext(
                system=system,
                config=engine.config,
                workloads=_hybrid_workloads(),
                type_rules=_HYBRID_RULES,
            )
        )
    return contexts


class TestStructurePlanOracles:
    """Batched map, link-budget, area and latency against one-at-a-time oracles."""

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("overlay_rules", [False, True])
    def test_mixed_structure_batch(self, cached, overlay_rules):
        archs = _batch_archs(overlay_rules)
        engine = EvaluationEngine(
            archs[0], SimulationConfig(), cache=EvaluationCache(enabled=cached)
        )
        ctxs = engine._execute(
            [engine.context_for(_workloads(), single_arch=arch) for arch in archs]
        )
        for ctx in ctxs:
            _assert_context_matches_oracles(engine, ctx)
        # Some structure has a zero-count area group at some point.
        labels = [set(ctx.area_reports[ctx.single_arch.name].breakdown_um2) for ctx in ctxs]
        assert set.union(*labels) != set.intersection(*labels)

    @pytest.mark.parametrize("cached", [True, False])
    def test_heterogeneous_batch(self, cached):
        engine = EvaluationEngine(
            TEMPLATE_BUILDERS["scatter"](), SimulationConfig(),
            cache=EvaluationCache(enabled=cached),
        )
        ctxs = engine._execute(_hybrid_contexts(engine))
        for ctx in ctxs:
            assert [arch.name.split("_")[0] for _, arch in ctx.routed] == [
                "scatter", "mzi", "scatter", "mzi",
            ]
            _assert_context_matches_oracles(engine, ctx)
            alone = EvaluationEngine(
                ctx.system, SimulationConfig(), type_rules=_HYBRID_RULES,
                cache=EvaluationCache(enabled=cached),
            ).run(_hybrid_workloads())
            assert _result_signature(ctx.result) == _result_signature(alone)

    def test_link_budgets_of_one_equal_the_analyzer(self):
        for arch in _batch_archs(False):
            engine = EvaluationEngine(arch, cache=EvaluationCache(enabled=False))
            reference = link_budget_reference(engine.link_budget_analyzer, arch)
            assert engine.link_budget_for(arch) == reference
            assert engine.link_budget_analyzer.analyze(arch) == reference

    def test_map_batch_looks_up_in_one_at_a_time_order(self):
        items = [
            (workload, arch, arch.resolve().parallel_dims)
            for arch in _batch_archs(False)
            for workload in _workloads()
        ]
        batch_cache, alone_cache = EvaluationCache(), EvaluationCache()
        batch_lookups, alone_lookups = [], []
        for cache, lookups in ((batch_cache, batch_lookups), (alone_cache, alone_lookups)):
            lookup = cache.lookup

            def spy(stage, key, lookup=lookup, lookups=lookups):
                lookups.append((stage, key))
                return lookup(stage, key)

            cache.lookup = spy
        batched = DataflowMapper(cache=batch_cache).map_batch(items)
        mapper = DataflowMapper(cache=alone_cache)
        for (workload, arch, dims), mapping in zip(items, batched):
            alone = mapper.map(workload, arch, dims)
            assert mapping.workload is workload
            assert _mapping_fields(mapping) == _mapping_fields(alone)
        assert batch_lookups == alone_lookups
        assert {k: (v.hits, v.misses) for k, v in batch_cache.stats.items()} == {
            k: (v.hits, v.misses) for k, v in alone_cache.stats.items()
        }

    def test_glb_bandwidth_read_once_per_hierarchy(self, monkeypatch):
        read = LatencyAnalyzer.glb_bytes_per_ns
        hierarchies = []

        def spy(hierarchy):
            hierarchies.append(id(hierarchy))
            return read(hierarchy)

        monkeypatch.setattr(LatencyAnalyzer, "glb_bytes_per_ns", staticmethod(spy))
        archs = [arch for arch in _batch_archs(False) if arch.name.startswith("tempo")]
        engine = EvaluationEngine(archs[0], SimulationConfig(), cache=EvaluationCache())
        ctxs = engine._execute(
            [engine.context_for(_workloads(), single_arch=arch) for arch in archs]
        )
        assert sorted(hierarchies) == sorted({id(ctx.memory_report.hierarchy) for ctx in ctxs})
        for ctx in ctxs:
            for layer in ctx.layers:
                assert layer.latency == latency_report_reference(
                    engine.latency_analyzer, layer.mapping, ctx.memory_report.hierarchy
                )

    @pytest.mark.parametrize("overlap", [False, True])
    def test_latency_bandwidth_form_is_bit_identical(self, overlap):
        analyzer = LatencyAnalyzer(overlap_memory_with_compute=overlap)
        config = SimulationConfig()
        for arch in _batch_archs(False):
            mappings = [DataflowMapper().map(w, arch) for w in _workloads()]
            hierarchy = MemoryAnalyzer(config).analyze(mappings, arch).hierarchy
            for mapping in mappings:
                for source in (hierarchy, None):
                    reference = latency_report_reference(analyzer, mapping, source)
                    assert analyzer.analyze(mapping, source) == reference
                    assert analyzer.analyze_at(
                        mapping, LatencyAnalyzer.glb_bytes_per_ns(source)
                    ) == reference


# -- the 192-point dse_large_grid sweep ------------------------------------------------


def _large_grid_explorer():
    from repro.scenarios import REGISTRY
    from repro.scenarios.workloads import large_grid_workloads

    spec = REGISTRY.get("dse_large_grid").spec
    explorer = DesignSpaceExplorer(
        build_tempo, large_grid_workloads(), base_config=spec.arch_config()
    )
    return explorer, explorer.explore(DesignSpace.from_axes(spec.sweep)), spec


class TestLargeGrid:
    def test_cache_traffic_is_pinned(self):
        _, result, _ = _large_grid_explorer()
        traffic = {
            stage: (stats.hits, stats.misses) for stage, stats in result.cache_stats.items()
        }
        assert traffic == {
            "build": (189, 3),
            "map": (336, 240),
            "mapper_limits": (573, 3),
            "memory": (112, 80),
            "critical_path": (160, 32),
            "optics_profile": (189, 3),
            "floorplan": (191, 1),
            "design_point": (0, 192),
        }
        assert {name: t.count for name, t in result.pass_timings.items()} == {
            name: 192
            for name in (
                "route", "map", "memory", "link_budget", "area", "layer_analysis",
                "aggregate",
            )
        }

    def test_every_point_equals_an_uncached_engine(self):
        explorer, result, spec = _large_grid_explorer()
        assert len(result.points) == 192
        archs = []
        for point in result.points:
            config = dataclasses.replace(spec.arch_config(), **point.parameters)
            archs.append(build_tempo(config=config, name=f"{config.name}_dse"))
        engine = EvaluationEngine(
            archs[0], SimulationConfig(), cache=EvaluationCache(enabled=False)
        )
        for point, alone in zip(result.points, engine.run_batch(archs, explorer.workloads)):
            link = next(iter(alone.link_budgets.values()))
            assert point.energy_uj == alone.total_energy_uj
            assert point.latency_ns == alone.total_time_ns
            assert point.area_mm2 == alone.total_area_mm2
            assert point.power_w == alone.total_power_w
            assert point.laser_power_mw == link.total_laser_electrical_power_mw
            assert point.energy_per_mac_pj == alone.energy_per_mac_pj
