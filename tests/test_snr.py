"""Tests for the optical receiver SNR analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ArchitectureConfig
from repro.arch.templates import build_tempo
from repro.core.link_budget import LinkBudgetAnalyzer
from repro.core.snr import SNRAnalyzer


class TestSNRBasics:
    def test_snr_increases_with_power(self):
        analyzer = SNRAnalyzer()
        weak = analyzer.analyze_received_power(0.001, 5.0)
        strong = analyzer.analyze_received_power(1.0, 5.0)
        assert strong.snr_linear > weak.snr_linear
        assert strong.effective_bits > weak.effective_bits

    def test_snr_decreases_with_bandwidth(self):
        analyzer = SNRAnalyzer()
        slow = analyzer.analyze_received_power(0.1, 1.0)
        fast = analyzer.analyze_received_power(0.1, 25.0)
        assert slow.snr_db > fast.snr_db

    def test_noise_components_positive(self):
        report = SNRAnalyzer().analyze_received_power(0.1, 5.0)
        assert report.shot_noise_ma2 > 0
        assert report.thermal_noise_ma2 > 0
        assert report.rin_noise_ma2 > 0
        assert report.photocurrent_ma == pytest.approx(0.1)  # 1 A/W on 0.1 mW

    def test_thermal_limited_at_low_power(self):
        report = SNRAnalyzer().analyze_received_power(1e-4, 5.0)
        assert report.thermal_noise_ma2 > report.shot_noise_ma2

    def test_rin_or_shot_limited_at_high_power(self):
        report = SNRAnalyzer().analyze_received_power(10.0, 5.0)
        assert max(report.shot_noise_ma2, report.rin_noise_ma2) > report.thermal_noise_ma2

    def test_zero_power_gives_minus_inf_db(self):
        report = SNRAnalyzer().analyze_received_power(0.0, 5.0)
        assert report.snr_db == float("-inf")
        assert report.effective_bits == 0.0

    def test_invalid_inputs(self):
        analyzer = SNRAnalyzer()
        with pytest.raises(ValueError):
            analyzer.analyze_received_power(-1.0, 5.0)
        with pytest.raises(ValueError):
            analyzer.analyze_received_power(1.0, 0.0)
        with pytest.raises(ValueError):
            SNRAnalyzer(responsivity_a_per_w=0.0)
        with pytest.raises(ValueError):
            SNRAnalyzer(load_resistance_ohm=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=10.0))
    def test_effective_bits_monotone_in_power(self, power_mw):
        analyzer = SNRAnalyzer()
        assert (
            analyzer.analyze_received_power(2 * power_mw, 5.0).effective_bits
            >= analyzer.analyze_received_power(power_mw, 5.0).effective_bits
        )


class TestEffectiveBitsEdgeCases:
    """SNRReport behaviour at the degenerate corners the variation subsystem hits."""

    def test_zero_received_power_resolves_zero_bits(self):
        report = SNRAnalyzer().analyze_received_power(0.0, 5.0)
        assert report.snr_linear == 0.0
        assert report.snr_db == float("-inf")
        assert report.effective_bits == 0.0
        assert not report.supports_bits(1)

    def test_near_zero_power_is_finite_and_non_negative(self):
        report = SNRAnalyzer().analyze_received_power(1e-15, 5.0)
        assert report.snr_linear > 0.0
        assert report.effective_bits == 0.0  # floored, never negative
        assert report.snr_db < 0.0

    def test_effective_bits_never_negative(self):
        # A sub-1.76 dB SNR would give negative ENOB; the floor clamps it.
        for power_mw in (1e-12, 1e-9, 1e-6):
            report = SNRAnalyzer().analyze_received_power(power_mw, 25.0)
            assert report.effective_bits >= 0.0

    def test_zero_or_negative_bandwidth_rejected(self):
        analyzer = SNRAnalyzer()
        with pytest.raises(ValueError, match="bandwidth"):
            analyzer.analyze_received_power(1.0, 0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            analyzer.analyze_received_power(1.0, -5.0)

    def test_rin_dominated_regime_caps_effective_bits(self):
        """With RIN ~ P^2 (like the signal), more power stops buying bits."""
        noisy_laser = SNRAnalyzer(rin_db_per_hz=-130.0)
        report = noisy_laser.analyze_received_power(10.0, 5.0)
        assert report.rin_noise_ma2 > report.shot_noise_ma2
        assert report.rin_noise_ma2 > report.thermal_noise_ma2
        # The SNR plateaus at 1 / (RIN * bandwidth): a 10x power increase moves
        # the resolvable precision by well under a bit.
        more_power = noisy_laser.analyze_received_power(100.0, 5.0)
        assert more_power.effective_bits - report.effective_bits < 0.2
        # A quieter laser at the same power resolves strictly more bits.
        quiet = SNRAnalyzer(rin_db_per_hz=-155.0).analyze_received_power(10.0, 5.0)
        assert quiet.effective_bits > report.effective_bits


class TestEffectiveBitsForPower:
    """The report-free pricing loop Monte Carlo trials use must equal the
    full report's effective bits bit for bit."""

    @pytest.mark.parametrize(
        "analyzer",
        [
            SNRAnalyzer(),
            SNRAnalyzer(
                responsivity_a_per_w=0.8,
                load_resistance_ohm=1000.0,
                temperature_k=350.0,
                rin_db_per_hz=-135.0,
            ),
        ],
        ids=["default", "custom"],
    )
    def test_matches_the_report_on_random_losses(self, analyzer):
        rng = np.random.default_rng(2024)
        losses_db = np.concatenate(
            [rng.uniform(0.0, 40.0, 4000), rng.uniform(40.0, 4000.0, 200)]
        ).tolist()
        powers_mw = [1.2 * 10.0 ** (-(6.0 + loss) / 10.0) for loss in losses_db]
        # Very large losses underflow the received power to exactly zero.
        powers_mw += [0.0, 1.2 * 10.0 ** (-(6.0 + 1e4) / 10.0), 5e3]
        for bandwidth_ghz in (0.5, 5.0, 25.0):
            expected = [
                analyzer.analyze_received_power(power, bandwidth_ghz).effective_bits
                for power in powers_mw
            ]
            priced = analyzer.effective_bits_for_power(powers_mw, bandwidth_ghz)
            assert priced == expected
            assert priced[-3:-1] == [0.0, 0.0]  # no light, no bits

    def test_invalid_inputs_raise(self):
        analyzer = SNRAnalyzer()
        for bandwidth_ghz in (0.0, -5.0):
            with pytest.raises(ValueError, match="bandwidth"):
                analyzer.effective_bits_for_power([1.0], bandwidth_ghz)
        with pytest.raises(ValueError, match="non-negative"):
            analyzer.effective_bits_for_power([1.0, -1e-9], 5.0)


class TestMinimumPower:
    def test_minimum_power_supports_requested_bits(self):
        analyzer = SNRAnalyzer()
        power = analyzer.minimum_power_for_bits(8, bandwidth_ghz=5.0)
        assert analyzer.analyze_received_power(power, 5.0).supports_bits(8)
        assert not analyzer.analyze_received_power(power * 0.5, 5.0).supports_bits(8)

    def test_more_bits_need_more_power(self):
        analyzer = SNRAnalyzer()
        assert analyzer.minimum_power_for_bits(8, 5.0) > analyzer.minimum_power_for_bits(4, 5.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SNRAnalyzer().minimum_power_for_bits(0, 5.0)


class TestArchitectureSNR:
    def test_link_budget_power_yields_usable_snr(self, tempo_arch):
        """The Eq.-1 laser power must leave enough SNR to resolve the input levels."""
        link = LinkBudgetAnalyzer().analyze(tempo_arch)
        report = SNRAnalyzer().analyze(tempo_arch, link)
        assert report.snr_db > 0
        assert report.effective_bits >= 1.0

    def test_higher_input_bits_give_more_received_power(self):
        analyzer = SNRAnalyzer()
        low = build_tempo(config=ArchitectureConfig(input_bits=4), name="b4")
        high = build_tempo(config=ArchitectureConfig(input_bits=8), name="b8")
        assert (
            analyzer.analyze(high).received_power_mw
            > analyzer.analyze(low).received_power_mw
        )

    def test_analyze_without_explicit_link_budget(self, tempo_arch):
        report = SNRAnalyzer().analyze(tempo_arch)
        assert report.received_power_mw > 0
