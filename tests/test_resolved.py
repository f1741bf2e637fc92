"""The per-run rule table, the energy plan and compiled scaling rules.

Bit identity against the loops they replaced (``tests/oracles.py``), the
pickle contract of compiled rules, and a spy showing that a design point
evaluates each scaling rule at most once per parameter overlay.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from oracles import area_report_reference, energy_report_reference, eval_tree
from repro.arch.architecture import ArchitectureConfig
from repro.arch.instance import Activity
from repro.arch.templates import TEMPLATE_BUILDERS, build_tempo
from repro.core.area import AreaAnalyzer
from repro.core.cache import EvaluationCache
from repro.core.config import SimulationConfig
from repro.core.energy import EnergyAnalyzer
from repro.core.engine import EvaluationEngine, observe_passes
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
        assert len(resolved.energy_plans) == len(overlays)

    def test_matrix_reaches_reconfig_and_data_dependent_rows(self):
        config = SimulationConfig(data_aware=True)
        analyzer = EnergyAnalyzer(config)
        pcm = TEMPLATE_BUILDERS["pcm_crossbar"]()
        mapping = DataflowMapper().map(_workloads()[0], pcm)
        rows = analyzer.plan(pcm.resolve(), mapping.params_overlay(), 0.2, True, True)
        assert any(row.activity is Activity.PER_RECONFIG for row in rows)
        assert mapping.reconfig_events * mapping.forwards > 0
        mzi = TEMPLATE_BUILDERS["mzi_mesh"]()
        rows = analyzer.plan(mzi.resolve(), {"T_ACC": 1.0}, 0.2, True, True)
        assert any(row.prefix is None for row in rows)
        rows = analyzer.plan(mzi.resolve(), {"T_ACC": 1.0}, 0.2, False, True)
        assert all(row.prefix is not None for row in rows)

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

        points = []

        def on_pass(stage, engine, elapsed_s):
            if stage == "aggregate":
                points.append(list(calls))
                calls.clear()

        monkeypatch.setattr(ScalingRule, "evaluate", spy)
        workloads = [
            GEMMWorkload("qkv", m=64, k=48, n=96),
            GEMMWorkload("deep", m=16, k=1024, n=32),
        ]
        explorer = DesignSpaceExplorer(
            build_tempo, workloads, base_config=ArchitectureConfig(), cache=cache
        )
        space = DesignSpace({"num_tiles": [1, 2], "core_height": [2, 4]})
        with observe_passes(on_pass):
            result = explorer.explore(space)
        assert len(result.points) == 4 and len(points) == 4
        for point_calls in points:
            assert point_calls, "a design point evaluated no rules"
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
