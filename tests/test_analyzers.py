"""Tests for the latency, memory, energy and area analyzers."""

import numpy as np
import pytest

from repro.arch import ArchitectureConfig
from repro.arch.templates import build_scatter, build_tempo
from repro.core.area import AreaAnalyzer
from repro.core.config import SimulationConfig
from repro.core.energy import EnergyAnalyzer
from repro.core.latency import LatencyAnalyzer
from repro.core.link_budget import LinkBudgetAnalyzer
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.core.report import (
    component_label,
    merge_breakdowns,
    render_breakdown,
    render_comparison,
    save_result_text,
    scale_breakdown,
)
from repro.dataflow.gemm import GEMMWorkload
from repro.dataflow.mapping import DataflowMapper
from repro.memory.hierarchy import MemoryLevel


@pytest.fixture()
def tempo_mapping(tempo_arch, paper_gemm):
    return DataflowMapper().map(paper_gemm, tempo_arch)


class TestLatencyAnalyzer:
    def test_total_is_sum_of_phases(self, tempo_arch, tempo_mapping):
        memory = MemoryAnalyzer().analyze([tempo_mapping], tempo_arch)
        report = LatencyAnalyzer().analyze(tempo_mapping, memory.hierarchy)
        assert report.total_cycles == (
            report.load_cycles
            + report.compute_cycles
            + report.reconfig_cycles
            + report.writeout_cycles
        )
        assert report.total_time_ns > 0
        assert report.compute_cycles == tempo_mapping.compute_cycles

    def test_latency_without_hierarchy_has_no_streaming_terms(self, tempo_mapping):
        report = LatencyAnalyzer().analyze(tempo_mapping, None)
        assert report.load_cycles == 0
        assert report.writeout_cycles == 0

    def test_latency_hiding_reduces_stalls(self, tempo_arch, tempo_mapping):
        memory = MemoryAnalyzer().analyze([tempo_mapping], tempo_arch)
        baseline = LatencyAnalyzer().analyze(tempo_mapping, memory.hierarchy)
        hidden = LatencyAnalyzer(overlap_memory_with_compute=True).analyze(
            tempo_mapping, memory.hierarchy
        )
        assert hidden.total_cycles <= baseline.total_cycles

    def test_effective_tops_positive(self, tempo_arch, tempo_mapping):
        report = LatencyAnalyzer().analyze(tempo_mapping)
        assert report.effective_tops > 0
        assert 0 < report.compute_bound_fraction <= 1.0


class TestMemoryAnalyzer:
    def test_glb_bandwidth_meets_demand(self, tempo_arch, tempo_mapping):
        report = MemoryAnalyzer().analyze([tempo_mapping], tempo_arch)
        assert report.bandwidth_satisfied
        assert report.glb_blocks >= 1

    def test_higher_frequency_needs_more_blocks(self, paper_gemm):
        slow_arch = build_tempo(config=ArchitectureConfig(frequency_ghz=1.0), name="slow")
        fast_arch = build_tempo(config=ArchitectureConfig(frequency_ghz=10.0), name="fast")
        analyzer = MemoryAnalyzer()
        slow = analyzer.analyze([DataflowMapper().map(paper_gemm, slow_arch)], slow_arch)
        fast = analyzer.analyze([DataflowMapper().map(paper_gemm, fast_arch)], fast_arch)
        assert fast.glb_blocks >= slow.glb_blocks

    def test_traffic_and_energy_consistency(self, tempo_arch, tempo_mapping):
        report = MemoryAnalyzer().analyze([tempo_mapping], tempo_arch)
        for level in MemoryLevel:
            expected = report.hierarchy.access_energy_pj(level, report.traffic_bits[level])
            assert report.energy_pj[level] == pytest.approx(expected)
        assert report.total_energy_pj == pytest.approx(sum(report.energy_pj.values()))

    def test_empty_mapping_list_gets_default_hierarchy(self, tempo_arch):
        report = MemoryAnalyzer().analyze([], tempo_arch)
        assert report.glb_blocks == 1
        assert report.total_energy_pj == 0.0

    def test_glb_sized_for_largest_layer(self, tempo_arch):
        big = DataflowMapper().map(GEMMWorkload("big", m=512, k=512, n=512), tempo_arch)
        report = MemoryAnalyzer().analyze([big], tempo_arch)
        assert report.hierarchy.glb.capacity_bytes >= big.workload.total_bytes


class TestEnergyAnalyzer:
    def test_breakdown_components_present(self, tempo_arch, tempo_mapping):
        link = LinkBudgetAnalyzer().analyze(tempo_arch)
        report = EnergyAnalyzer().analyze(
            tempo_arch, tempo_mapping, link_budget=link, memory_energy_pj=1000.0
        )
        for label in ("DAC", "ADC", "MZM", "Laser", "PD", "Integrator", "DM"):
            assert label in report.breakdown_pj, label
        assert report.total_pj > 0
        assert report.compute_pj < report.total_pj

    def test_average_power_consistent(self, tempo_arch, tempo_mapping):
        report = EnergyAnalyzer().analyze(tempo_arch, tempo_mapping)
        assert report.total_power_mw * report.total_time_ns == pytest.approx(report.total_pj)

    def test_data_aware_saves_energy_for_weight_static_ptc(self, paper_gemm):
        arch = build_scatter()
        rng = np.random.default_rng(0)
        workload = GEMMWorkload(
            "w", m=64, k=16, n=16,
            weight_values=rng.normal(0, 0.2, size=(16, 16)),
        )
        mapping = DataflowMapper().map(workload, arch)
        analyzer = EnergyAnalyzer()
        unaware = analyzer.analyze(arch, mapping, data_aware=False)
        aware = analyzer.analyze(arch, mapping, data_aware=True)
        assert aware.component("PS") < unaware.component("PS")

    def test_pruning_gates_weight_encoders(self, tempo_arch):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(28, 280))
        mask = rng.random((28, 280)) > 0.5
        dense = GEMMWorkload("dense", m=280, k=28, n=280, weight_values=weights)
        sparse = GEMMWorkload(
            "sparse", m=280, k=28, n=280, weight_values=weights, pruning_mask=mask
        )
        analyzer = EnergyAnalyzer()
        mapper = DataflowMapper()
        e_dense = analyzer.analyze(tempo_arch, mapper.map(dense, tempo_arch))
        e_sparse = analyzer.analyze(tempo_arch, mapper.map(sparse, tempo_arch))
        assert e_sparse.total_pj < e_dense.total_pj

    def test_memory_energy_lands_in_dm(self, tempo_arch, tempo_mapping):
        report = EnergyAnalyzer().analyze(
            tempo_arch, tempo_mapping, memory_energy_pj=12345.0
        )
        assert report.component("DM") >= 12345.0

    def test_static_memory_power_accumulates_over_time(self, tempo_arch, tempo_mapping):
        without = EnergyAnalyzer().analyze(tempo_arch, tempo_mapping)
        with_leakage = EnergyAnalyzer().analyze(
            tempo_arch, tempo_mapping, memory_static_power_mw=10.0
        )
        expected_extra = 10.0 * tempo_mapping.compute_time_ns
        assert with_leakage.component("DM") - without.component("DM") == pytest.approx(
            expected_extra
        )

    def test_laser_energy_uses_link_budget(self, tempo_arch, tempo_mapping):
        link = LinkBudgetAnalyzer().analyze(tempo_arch)
        report = EnergyAnalyzer().analyze(tempo_arch, tempo_mapping, link_budget=link)
        expected = link.total_laser_electrical_power_mw * tempo_mapping.total_time_ns
        assert report.component("Laser") == pytest.approx(expected)

    def test_no_link_budget_falls_back_to_device_power(self, tempo_arch, tempo_mapping):
        report = EnergyAnalyzer().analyze(tempo_arch, tempo_mapping, link_budget=None)
        assert report.component("Laser") > 0


class TestAreaAnalyzer:
    def test_layout_aware_larger_than_unaware(self, tempo_arch):
        analyzer = AreaAnalyzer()
        aware = analyzer.analyze(tempo_arch, layout_aware=True)
        unaware = analyzer.analyze(tempo_arch, layout_aware=False)
        assert aware.total_area_mm2 > unaware.total_area_mm2
        assert aware.node_area_um2 > unaware.node_area_um2
        assert aware.node_area_naive_um2 == unaware.node_area_um2

    def test_breakdown_labels(self, tempo_arch):
        report = AreaAnalyzer().analyze(tempo_arch)
        for label in ("ADC", "DAC", "Node", "MZM", "Y Branch", "Crossing"):
            assert label in report.breakdown_um2, label

    def test_memory_area_included_when_reported(self, tempo_arch, tempo_mapping):
        memory = MemoryAnalyzer().analyze([tempo_mapping], tempo_arch)
        with_mem = AreaAnalyzer().analyze(tempo_arch, memory_report=memory)
        without = AreaAnalyzer().analyze(tempo_arch)
        assert with_mem.total_area_mm2 > without.total_area_mm2
        assert "Mem" in with_mem.breakdown_mm2

    def test_off_chip_laser_excluded(self, tempo_arch):
        report = AreaAnalyzer().analyze(tempo_arch)
        assert "Laser" not in report.breakdown_um2

    def test_config_switch_controls_default(self, tempo_arch):
        aware = AreaAnalyzer(SimulationConfig(use_layout_aware_area=True)).analyze(tempo_arch)
        unaware = AreaAnalyzer(SimulationConfig(use_layout_aware_area=False)).analyze(tempo_arch)
        assert aware.layout_aware and not unaware.layout_aware

    def test_floorplan_gap_ratio(self, tempo_arch):
        assert AreaAnalyzer.node_floorplan_gap(tempo_arch) > 2.0


class TestReportHelpers:
    def test_component_label_for_composite(self, tempo_arch):
        assert component_label(tempo_arch.instance("node")) == "Node"
        assert component_label(tempo_arch.instance("dac_a")) == "DAC"

    def test_merge_and_scale(self):
        merged = merge_breakdowns([{"a": 1.0, "b": 2.0}, {"b": 3.0}])
        assert merged == {"a": 1.0, "b": 5.0}
        assert scale_breakdown(merged, 2.0)["b"] == 10.0

    def test_render_functions_produce_text(self):
        text = render_breakdown({"a": 1.0, "b": 3.0}, unit="pJ")
        assert "TOTAL" in text
        comparison = render_comparison("sim", {"a": 1.0}, "ref", {"a": 2.0})
        assert "ratio" in comparison

    def test_save_result_text_writes_the_table_silently(self, tmp_path, capsys):
        text = render_breakdown({"a": 1.0}, unit="pJ")
        path = save_result_text(tmp_path / "nested" / "demo.txt", text)
        assert path == tmp_path / "nested" / "demo.txt"
        assert path.read_text() == text + "\n"
        assert capsys.readouterr().out == ""
