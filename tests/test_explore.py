"""Tests for the design-space exploration extension."""

import pytest

from repro.arch import ArchitectureConfig
from repro.arch.templates import build_tempo
from repro.dataflow.gemm import GEMMWorkload
from repro.explore import (
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
    pareto_front,
)


def make_point(**objectives) -> DesignPoint:
    defaults = dict(
        parameters={}, energy_uj=1.0, latency_ns=1.0, area_mm2=1.0,
        power_w=1.0, laser_power_mw=1.0, energy_per_mac_pj=1.0,
    )
    defaults.update(objectives)
    return DesignPoint(**defaults)


class TestDesignSpace:
    def test_grid_size(self):
        space = DesignSpace({"core_height": [2, 4], "num_wavelengths": [1, 2, 4]})
        assert space.size() == 6
        assert len(list(space.grid())) == 6

    def test_grid_contains_all_combinations(self):
        space = DesignSpace({"core_height": [2, 4], "core_width": [2, 8]})
        combos = {(g["core_height"], g["core_width"]) for g in space.grid()}
        assert combos == {(2, 2), (2, 8), (4, 2), (4, 8)}

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            DesignSpace({"warp_factor": [1, 2]})

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace({})
        with pytest.raises(ValueError):
            DesignSpace({"core_height": []})


class TestParetoFront:
    def test_single_point_is_front(self):
        point = make_point()
        assert pareto_front([point], ["energy_uj"]) == [point]

    def test_dominated_point_removed(self):
        good = make_point(energy_uj=1.0, latency_ns=1.0)
        bad = make_point(energy_uj=2.0, latency_ns=2.0)
        front = pareto_front([good, bad], ["energy_uj", "latency_ns"])
        assert front == [good]

    def test_tradeoff_points_both_kept(self):
        fast = make_point(energy_uj=2.0, latency_ns=1.0)
        frugal = make_point(energy_uj=1.0, latency_ns=2.0)
        front = pareto_front([fast, frugal], ["energy_uj", "latency_ns"])
        assert set(id(p) for p in front) == {id(fast), id(frugal)}

    def test_requires_objectives(self):
        with pytest.raises(ValueError):
            pareto_front([make_point()], [])

    def test_unknown_objective(self):
        with pytest.raises(KeyError):
            make_point().objective("speed_of_light")

    def test_dominates_is_strict(self):
        a = make_point(energy_uj=1.0)
        b = make_point(energy_uj=1.0)
        assert not a.dominates(b, ["energy_uj"])


class TestExplorer:
    @pytest.fixture()
    def explorer(self):
        workload = GEMMWorkload("g", m=64, k=16, n=64)
        base = ArchitectureConfig(num_tiles=1, cores_per_tile=1, core_height=2, core_width=2)
        return DesignSpaceExplorer(build_tempo, [workload], base_config=base)

    def test_evaluate_single_point(self, explorer):
        point = explorer.evaluate({"num_wavelengths": 2})
        assert point.energy_uj > 0
        assert point.latency_ns > 0
        assert point.area_mm2 > 0
        assert point.parameters == {"num_wavelengths": 2}

    def test_explore_grid(self, explorer):
        space = DesignSpace({"core_height": [2, 4], "num_wavelengths": [1, 2]})
        result = explorer.explore(space)
        assert len(result) == 4
        assert len(result.pareto_front()) >= 1
        assert len(result.pareto_front()) <= len(result)

    def test_best_by_objective(self, explorer):
        space = DesignSpace({"core_height": [2, 8]})
        result = explorer.explore(space)
        fastest = result.best("latency_ns")
        assert fastest.latency_ns == min(p.latency_ns for p in result.points)

    def test_bigger_cores_are_faster_but_larger(self, explorer):
        small = explorer.evaluate({"core_height": 2, "core_width": 2})
        large = explorer.evaluate({"core_height": 8, "core_width": 8})
        assert large.latency_ns < small.latency_ns
        assert large.area_mm2 > small.area_mm2

    def test_as_rows(self, explorer):
        result = explorer.explore(DesignSpace({"core_height": [2]}))
        rows = result.as_rows()
        assert len(rows) == 1
        assert "core_height=2" in rows[0][0]

    def test_best_on_empty_result_rejected(self):
        from repro.explore.dse import ExplorationResult

        with pytest.raises(ValueError):
            ExplorationResult().best("energy_uj")

    def test_requires_workloads(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(build_tempo, [])

    def test_rejects_non_workload_objects(self):
        with pytest.raises(TypeError):
            DesignSpaceExplorer(build_tempo, ["not a workload"])


class TestConfigSnapshot:
    """An explorer evaluates and keys its points on construction-time config
    snapshots, so editing the caller's config afterwards can never make a
    memoized point disagree with a fresh evaluation."""

    def test_mutated_base_config_serves_no_stale_point(self):
        from repro.scenarios.workloads import large_grid_workloads

        workloads = large_grid_workloads(11)
        cfg = ArchitectureConfig()
        cached = DesignSpaceExplorer(build_tempo, workloads, base_config=cfg)
        uncached = DesignSpaceExplorer(build_tempo, workloads, base_config=cfg, cache=False)
        before = cached.evaluate({"num_tiles": 2})
        assert before.latency_ns == pytest.approx(1472921.6)
        cfg.frequency_ghz = 10.0
        # Key and evaluated config agree: the cached point equals a fresh
        # (uncached) evaluation of the same explorer.
        assert cached.evaluate({"num_tiles": 2}) == before
        assert uncached.evaluate({"num_tiles": 2}) == before
        assert cached.base_config.frequency_ghz == 5.0
        # The edit takes effect through a new explorer.
        fresh = DesignSpaceExplorer(build_tempo, workloads, base_config=cfg)
        assert fresh.evaluate({"num_tiles": 2}).latency_ns == pytest.approx(896204.8)

    def test_mutated_sim_config_serves_no_stale_point(self):
        from repro.core.config import SimulationConfig

        workloads = [GEMMWorkload("g", m=64, k=16, n=64)]
        sim = SimulationConfig()
        cached = DesignSpaceExplorer(build_tempo, workloads, sim_config=sim)
        uncached = DesignSpaceExplorer(build_tempo, workloads, sim_config=sim, cache=False)
        before = cached.evaluate({"num_tiles": 2})
        sim.include_memory = False
        assert cached.evaluate({"num_tiles": 2}) == before
        assert uncached.evaluate({"num_tiles": 2}) == before
        fresh = DesignSpaceExplorer(build_tempo, workloads, sim_config=sim)
        assert fresh.evaluate({"num_tiles": 2}).energy_uj < before.energy_uj

    def test_workloads_are_a_snapshot(self):
        """Appending to the caller's list (or trying to append to the
        explorer's) cannot change the set a cached explorer keys on."""
        small = GEMMWorkload("g", m=64, k=16, n=64)
        big = GEMMWorkload("big", m=256, k=256, n=256)
        workloads = [small]
        cached = DesignSpaceExplorer(build_tempo, workloads)
        before = cached.evaluate({"num_tiles": 1})
        assert before.latency_ns == pytest.approx(601.6)
        workloads.append(big)
        assert cached.workloads == (small,)
        with pytest.raises(AttributeError):
            cached.workloads.append(big)
        assert cached.evaluate({"num_tiles": 1}) == before
        both = DesignSpaceExplorer(build_tempo, workloads)
        uncached = DesignSpaceExplorer(build_tempo, workloads, cache=False)
        assert both.evaluate({"num_tiles": 1}).latency_ns == pytest.approx(117939.2)
        assert both.evaluate({"num_tiles": 1}) == uncached.evaluate({"num_tiles": 1})

    def test_config_attributes_are_copies(self):
        workloads = [GEMMWorkload("g", m=64, k=16, n=64)]
        explorer = DesignSpaceExplorer(build_tempo, workloads)
        before = explorer.evaluate({"num_tiles": 1})
        explorer.base_config.frequency_ghz = 10.0
        explorer.sim_config.include_memory = False
        assert explorer.base_config.frequency_ghz == 5.0
        assert explorer.sim_config.include_memory is True
        assert DesignSpaceExplorer(build_tempo, workloads, cache=False).evaluate(
            {"num_tiles": 1}
        ) == explorer.evaluate({"num_tiles": 1}) == before
