"""Tests for the search strategies and the fast Pareto-front extraction."""

import itertools

import numpy as np
import pytest

from repro.arch import ArchitectureConfig
from repro.arch.templates import build_tempo
from repro.dataflow.gemm import GEMMWorkload
from repro.explore import (
    CoordinateDescent,
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
    GridSearch,
    RandomSearch,
    pareto_front,
)
from repro.explore.search import resolve_strategy


def make_point(**objectives) -> DesignPoint:
    defaults = dict(
        parameters={}, energy_uj=1.0, latency_ns=1.0, area_mm2=1.0,
        power_w=1.0, laser_power_mw=1.0, energy_per_mac_pj=1.0,
    )
    defaults.update(objectives)
    return DesignPoint(**defaults)


def brute_force_front(points, objectives):
    """The seed's O(n^2) all-pairs reference implementation."""
    return [
        candidate
        for candidate in points
        if not any(other.dominates(candidate, objectives) for other in points)
    ]


class TestParetoFrontEquivalence:
    """The incremental sweep must match the brute-force result exactly."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_objectives", [1, 2, 3])
    def test_random_clouds(self, seed, num_objectives):
        rng = np.random.default_rng(seed)
        objectives = ["energy_uj", "latency_ns", "area_mm2"][:num_objectives]
        points = []
        for i in range(120):
            values = {o: float(rng.integers(0, 12)) for o in objectives}
            points.append(make_point(parameters={"i": i}, **values))
        fast = pareto_front(points, objectives)
        slow = brute_force_front(points, objectives)
        assert fast == slow  # same points, same (input) order

    @pytest.mark.parametrize("seed", range(4))
    def test_float_ties_and_signed_zeros(self, seed):
        # Few distinct values (signed zeros among them) force ties on every
        # objective and exact duplicates; the front must be the brute-force
        # one object for object, in input order.
        rng = np.random.default_rng(100 + seed)
        values = np.array([-0.0, 0.0, 0.5, 1e-300, 2.5, 1e300])
        objectives = ["energy_uj", "latency_ns", "area_mm2", "power_w"]
        points = [
            make_point(parameters={"i": i}, **{o: float(rng.choice(values)) for o in objectives})
            for i in range(150)
        ]
        for count in range(1, len(objectives) + 1):
            fast = pareto_front(points, objectives[:count])
            slow = brute_force_front(points, objectives[:count])
            assert [id(p) for p in fast] == [id(p) for p in slow]

    def test_duplicates_all_kept(self):
        a = make_point(energy_uj=1.0, latency_ns=2.0)
        b = make_point(energy_uj=1.0, latency_ns=2.0)
        front = pareto_front([a, b], ["energy_uj", "latency_ns"])
        assert len(front) == 2

    def test_input_order_preserved(self):
        pts = [
            make_point(energy_uj=3.0, latency_ns=1.0),
            make_point(energy_uj=1.0, latency_ns=3.0),
            make_point(energy_uj=2.0, latency_ns=2.0),
        ]
        front = pareto_front(pts, ["energy_uj", "latency_ns"])
        assert front == pts

    def test_chain_of_dominated_points(self):
        # c is dominated only through transitivity-friendly ordering.
        pts = [make_point(energy_uj=float(i), latency_ns=float(i)) for i in range(10)]
        front = pareto_front(pts, ["energy_uj", "latency_ns"])
        assert front == [pts[0]]


@pytest.fixture()
def explorer():
    return DesignSpaceExplorer(
        build_tempo,
        [GEMMWorkload("g", m=64, k=16, n=64)],
        base_config=ArchitectureConfig(num_tiles=1, cores_per_tile=1),
    )


SPACE = DesignSpace({"core_height": [2, 4], "core_width": [2, 4, 8]})


class TestGridSearch:
    def test_covers_full_grid(self, explorer):
        result = explorer.explore(SPACE, strategy=GridSearch())
        assert len(result) == 6
        assert result.evaluations == 6
        assert result.strategy == "grid"

    def test_batched_grid_same_points(self, explorer):
        whole = explorer.explore(SPACE, strategy=GridSearch())
        batched = explorer.explore(SPACE, strategy=GridSearch(batch_size=2))
        assert whole.points == batched.points

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            GridSearch(batch_size=0)


class TestRandomSearch:
    def test_deterministic_for_seed(self, explorer):
        r1 = explorer.explore(SPACE, strategy=RandomSearch(num_samples=8, seed=3))
        r2 = explorer.explore(SPACE, strategy=RandomSearch(num_samples=8, seed=3))
        assert r1.points == r2.points
        assert r1.evaluations == 8

    def test_samples_come_from_candidates(self, explorer):
        result = explorer.explore(SPACE, strategy=RandomSearch(num_samples=10, seed=0))
        for point in result.points:
            assert point.parameters["core_height"] in (2, 4)
            assert point.parameters["core_width"] in (2, 4, 8)

    def test_requires_positive_samples(self):
        with pytest.raises(ValueError):
            RandomSearch(num_samples=0)

    def test_constructible_by_name_defaults_to_space_size(self, explorer):
        result = explorer.explore(SPACE, strategy="random")
        assert result.evaluations == SPACE.size()


class TestCoordinateDescent:
    def test_finds_grid_optimum_on_separable_objective(self, explorer):
        # Latency is monotone in core size, so coordinate descent must land on
        # the same optimum the exhaustive grid finds.
        grid = explorer.explore(SPACE, strategy=GridSearch())
        cd = explorer.explore(
            SPACE, strategy=CoordinateDescent(objective="latency_ns")
        )
        assert (
            cd.best("latency_ns").parameters == grid.best("latency_ns").parameters
        )

    def test_reports_strategy_name(self, explorer):
        result = explorer.explore(SPACE, strategy=CoordinateDescent())
        assert result.strategy == "coordinate_descent"
        assert result.evaluations >= 1

    def test_explicit_start_point(self, explorer):
        strategy = CoordinateDescent(
            objective="latency_ns", start={"core_height": 4, "core_width": 8}
        )
        result = explorer.explore(SPACE, strategy=strategy)
        assert result.best("latency_ns").parameters == {
            "core_height": 4, "core_width": 8,
        }

    def test_start_must_cover_swept_parameters(self, explorer):
        strategy = CoordinateDescent(start={"core_height": 4})
        with pytest.raises(KeyError):
            explorer.explore(SPACE, strategy=strategy)

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            CoordinateDescent(max_rounds=0)

    def test_no_redundant_round_when_start_is_optimal(self, explorer):
        # Start at the latency optimum of a 2x2 space: one start evaluation plus
        # one line per coordinate, then stop -- adopting the start point must
        # not count as a round improvement (which would force a second round).
        small = DesignSpace({"core_height": [2, 4], "core_width": [2, 4]})
        strategy = CoordinateDescent(
            objective="latency_ns", start={"core_height": 4, "core_width": 4}
        )
        result = explorer.explore(small, strategy=strategy)
        assert result.evaluations == 3  # start + one alternative per coordinate


class TestExploreLoop:
    def test_strategy_by_name(self, explorer):
        result = explorer.explore(SPACE, strategy="grid")
        assert len(result) == 6

    def test_unknown_strategy_name(self, explorer):
        with pytest.raises(KeyError):
            explorer.explore(SPACE, strategy="simulated_annealing")

    def test_bad_strategy_type(self, explorer):
        with pytest.raises(TypeError):
            explorer.explore(SPACE, strategy=42)

    def test_progress_streams_in_order(self, explorer):
        seen = []
        explorer.explore(
            SPACE,
            strategy=GridSearch(),
            progress=lambda point, n, total: seen.append((dict(point.parameters), n, total)),
        )
        assert len(seen) == 6
        assert [n for _, n, _ in seen] == list(range(1, 7))
        assert all(total == 6 for _, _, total in seen)
        expected = [dict(zip(sorted(SPACE.parameters), combo))
                    for combo in itertools.product([2, 4], [2, 4, 8])]
        assert [p for p, _, _ in seen] == expected

    def test_max_evaluations_budget(self, explorer):
        result = explorer.explore(SPACE, max_evaluations=3)
        assert result.evaluations == 3
        assert len(result) == 3

    def test_invalid_budget(self, explorer):
        with pytest.raises(ValueError):
            explorer.explore(SPACE, max_evaluations=0)

    def test_resolve_default_is_grid(self):
        assert isinstance(resolve_strategy(None), GridSearch)

    def test_random_then_grid_share_cache(self, explorer):
        explorer.explore(SPACE, strategy=GridSearch())
        before = explorer.cache.stats["design_point"].misses
        result = explorer.explore(SPACE, strategy=RandomSearch(num_samples=12, seed=1))
        # Every random sample revisits a grid point: zero new evaluations.
        assert explorer.cache.stats["design_point"].misses == before
        assert result.evaluations == 12
