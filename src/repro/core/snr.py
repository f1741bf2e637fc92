"""Optical receiver SNR analysis.

The link-budget section of the paper derives both the laser power requirement and
the optical signal-to-noise ratio.  This module models the receiver chain noise for
a photodetector + TIA front end:

- shot noise of the received photocurrent: ``i_shot^2 = 2 q R P_rx Δf``;
- thermal (Johnson) noise of the front end:  ``i_th^2 = 4 k T Δf / R_load``;
- optional relative-intensity noise of the laser: ``i_rin^2 = (R P_rx)^2 · RIN · Δf``.

From the SNR it derives the effective number of resolvable amplitude levels
(and therefore bits) at the receiver, which is the quantity that must cover the
``b_in``-bit input encoding for the link to close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.arch.architecture import Architecture
from repro.core.constants import BOLTZMANN_J_PER_K, ELECTRON_CHARGE_C
from repro.core.link_budget import LinkBudgetAnalyzer, LinkBudgetReport


@dataclass(frozen=True)
class SNRReport:
    """Receiver signal-to-noise ratio and the effective resolvable precision."""

    received_power_mw: float
    photocurrent_ma: float
    shot_noise_ma2: float
    thermal_noise_ma2: float
    rin_noise_ma2: float
    bandwidth_ghz: float
    snr_linear: float

    @property
    def snr_db(self) -> float:
        if self.snr_linear <= 0:
            return float("-inf")
        return 10.0 * math.log10(self.snr_linear)

    @property
    def effective_bits(self) -> float:
        """Effective number of bits resolvable at the receiver (ENOB-style).

        Uses the standard ``ENOB = (SNR_dB - 1.76) / 6.02`` conversion, floored at 0.
        """
        return max(0.0, (self.snr_db - 1.76) / 6.02)

    def supports_bits(self, bits: int) -> bool:
        """Whether the receiver can resolve ``bits``-bit amplitude levels."""
        return self.effective_bits >= bits


class SNRAnalyzer:
    """Computes the receiver SNR implied by a link budget."""

    def __init__(
        self,
        responsivity_a_per_w: float = 1.0,
        load_resistance_ohm: float = 50.0,
        temperature_k: float = 300.0,
        rin_db_per_hz: float = -155.0,
    ) -> None:
        if responsivity_a_per_w <= 0:
            raise ValueError("responsivity must be positive")
        if load_resistance_ohm <= 0 or temperature_k <= 0:
            raise ValueError("load resistance and temperature must be positive")
        self.responsivity_a_per_w = responsivity_a_per_w
        self.load_resistance_ohm = load_resistance_ohm
        self.temperature_k = temperature_k
        self.rin_db_per_hz = rin_db_per_hz

    def analyze_received_power(
        self, received_power_mw: float, bandwidth_ghz: float
    ) -> SNRReport:
        """SNR for a given optical power at the detector and receiver bandwidth."""
        if received_power_mw < 0:
            raise ValueError("received power must be non-negative")
        if bandwidth_ghz <= 0:
            raise ValueError("bandwidth must be positive")
        power_w = received_power_mw * 1e-3
        bandwidth_hz = bandwidth_ghz * 1e9
        photocurrent_a = self.responsivity_a_per_w * power_w

        shot_a2 = 2.0 * ELECTRON_CHARGE_C * photocurrent_a * bandwidth_hz
        thermal_a2 = (
            4.0 * BOLTZMANN_J_PER_K * self.temperature_k * bandwidth_hz
            / self.load_resistance_ohm
        )
        rin_linear = 10.0 ** (self.rin_db_per_hz / 10.0)
        rin_a2 = (photocurrent_a**2) * rin_linear * bandwidth_hz

        noise_a2 = shot_a2 + thermal_a2 + rin_a2
        snr = (photocurrent_a**2) / noise_a2 if noise_a2 > 0 else float("inf")
        return SNRReport(
            received_power_mw=received_power_mw,
            photocurrent_ma=photocurrent_a * 1e3,
            shot_noise_ma2=shot_a2 * 1e6,
            thermal_noise_ma2=thermal_a2 * 1e6,
            rin_noise_ma2=rin_a2 * 1e6,
            bandwidth_ghz=bandwidth_ghz,
            snr_linear=snr,
        )

    def effective_bits_for_power(
        self, received_power_mw: Iterable[float], bandwidth_ghz: float
    ) -> List[float]:
        """Effective receiver bits for each of many received powers.

        Repeats :meth:`analyze_received_power` + :attr:`SNRReport.effective_bits`
        term for term in plain float arithmetic -- same operation order, same
        ``**``/``math.log10`` -- so every value equals the report's bit for
        bit, without building one.  The power-independent terms (thermal
        noise, the linear RIN) are computed once.  This is how Monte Carlo
        trials price their drifted links.
        """
        if bandwidth_ghz <= 0:
            raise ValueError("bandwidth must be positive")
        bandwidth_hz = bandwidth_ghz * 1e9
        thermal_a2 = (
            4.0 * BOLTZMANN_J_PER_K * self.temperature_k * bandwidth_hz
            / self.load_resistance_ohm
        )
        rin_linear = 10.0 ** (self.rin_db_per_hz / 10.0)
        bits = []
        for power_mw in received_power_mw:
            if power_mw < 0:
                raise ValueError("received power must be non-negative")
            photocurrent_a = self.responsivity_a_per_w * (power_mw * 1e-3)
            signal_a2 = photocurrent_a**2
            noise_a2 = (
                2.0 * ELECTRON_CHARGE_C * photocurrent_a * bandwidth_hz
                + thermal_a2
                + signal_a2 * rin_linear * bandwidth_hz
            )
            snr = signal_a2 / noise_a2 if noise_a2 > 0 else math.inf
            snr_db = 10.0 * math.log10(snr) if snr > 0 else -math.inf
            bits.append(max(0.0, (snr_db - 1.76) / 6.02))
        return bits

    def analyze(
        self,
        arch: Architecture,
        link_budget: LinkBudgetReport = None,
    ) -> SNRReport:
        """SNR at the detector for an architecture's link budget.

        The received power is the per-channel laser optical power attenuated by the
        critical-path insertion loss; the receiver bandwidth is the PTC clock.
        """
        if link_budget is None:
            link_budget = LinkBudgetAnalyzer().analyze(arch)
        received_mw = link_budget.laser_optical_power_mw * 10.0 ** (
            -link_budget.insertion_loss_db / 10.0
        )
        return self.analyze_received_power(received_mw, arch.config.frequency_ghz)

    def minimum_power_for_bits(
        self, bits: int, bandwidth_ghz: float, tolerance_mw: float = 1e-6
    ) -> float:
        """Smallest received optical power (mW) resolving ``bits``-bit levels.

        Binary search over received power; raises :class:`ValueError` when the
        requested precision cannot be met below 1 W (an unphysical operating point).
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        low, high = 0.0, 1e3
        if not self.analyze_received_power(high, bandwidth_ghz).supports_bits(bits):
            raise ValueError(f"{bits}-bit precision unreachable below {high} mW received power")
        while high - low > tolerance_mw:
            mid = (low + high) / 2.0
            if self.analyze_received_power(mid, bandwidth_ghz).supports_bits(bits):
                high = mid
            else:
                low = mid
        return high
