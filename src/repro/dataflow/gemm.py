"""GEMM workload description extracted from neural-network layers.

Every computation-intensive layer (convolution, linear, attention) is lowered to one
or more general matrix multiplications ``C[M, N] = A[M, K] @ B[K, N]``.  Besides the
shape, the workload record carries everything the data-aware analyses need: operand
bitwidths, the *actual* operand values (weights and, optionally, activations), the
pruning mask / sparsity, and the layer identity used for heterogeneous mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.blocks import BLOCK, flat_view


@dataclass
class GEMMWorkload:
    """One GEMM ``C[M, N] = A[M, K] @ B[K, N]`` with data-awareness metadata.

    Conventionally operand B holds the *weights* (the operand that may be held
    stationary on a PTC) and operand A holds the *activations*.

    Operand arrays may be read-only views of model state rather than copies,
    in either memory order: layer extraction records ``weight.T`` (an
    F-contiguous view of the layer's weight) and slices of its activations.
    Treat them as immutable; copy before editing.
    """

    name: str
    m: int
    n: int
    k: int
    input_bits: int = 8
    weight_bits: int = 8
    output_bits: int = 8
    layer_type: str = "gemm"
    weight_values: Optional[np.ndarray] = field(default=None, repr=False)
    input_values: Optional[np.ndarray] = field(default=None, repr=False)
    pruning_mask: Optional[np.ndarray] = field(default=None, repr=False)
    weight_static: bool = False

    def __post_init__(self) -> None:
        for label, dim in (("M", self.m), ("N", self.n), ("K", self.k)):
            if not isinstance(dim, (int, np.integer)) or dim < 1:
                raise ValueError(f"GEMM dimension {label} must be a positive int, got {dim!r}")
        self.m, self.n, self.k = int(self.m), int(self.n), int(self.k)
        for label, bits in (
            ("input_bits", self.input_bits),
            ("weight_bits", self.weight_bits),
            ("output_bits", self.output_bits),
        ):
            if bits < 1:
                raise ValueError(f"{label} must be >= 1, got {bits}")
        if self.weight_values is not None:
            self.weight_values = np.asarray(self.weight_values, dtype=float)
            if self.weight_values.shape != (self.k, self.n):
                raise ValueError(
                    f"weight_values shape {self.weight_values.shape} does not match "
                    f"(K, N) = ({self.k}, {self.n})"
                )
        if self.input_values is not None:
            self.input_values = np.asarray(self.input_values, dtype=float)
            if self.input_values.shape != (self.m, self.k):
                raise ValueError(
                    f"input_values shape {self.input_values.shape} does not match "
                    f"(M, K) = ({self.m}, {self.k})"
                )
        if self.pruning_mask is not None:
            self.pruning_mask = np.asarray(self.pruning_mask, dtype=bool)
            if self.weight_values is not None and self.pruning_mask.shape != self.weight_values.shape:
                raise ValueError("pruning_mask must have the same shape as weight_values")

    # -- basic quantities ------------------------------------------------------------
    @property
    def num_macs(self) -> int:
        """Multiply-accumulate operations in this GEMM."""
        return self.m * self.n * self.k

    @property
    def num_ops(self) -> int:
        """Arithmetic operations (2 per MAC)."""
        return 2 * self.num_macs

    @property
    def input_bytes(self) -> float:
        return self.m * self.k * self.input_bits / 8.0

    @property
    def weight_bytes(self) -> float:
        return self.k * self.n * self.weight_bits / 8.0

    @property
    def output_bytes(self) -> float:
        return self.m * self.n * self.output_bits / 8.0

    @property
    def total_bytes(self) -> float:
        return self.input_bytes + self.weight_bytes + self.output_bytes

    # -- data-awareness -----------------------------------------------------------------
    @property
    def sparsity(self) -> float:
        """Fraction of weight elements pruned to exactly zero.

        Memoized on the workload like :meth:`normalized_weights`.
        """
        cached = getattr(self, "_repro_sparsity", None)
        if cached is None:
            cached = self._repro_sparsity = self._zero_fraction()
        return cached

    def _zero_fraction(self) -> float:
        # Counted, not averaged over a boolean mask: count / size is exactly
        # what ``mean`` of a bool array returns.  Float weights are compared
        # block by block (``count_nonzero`` on floats is a scalar loop, on
        # bools a vectorized one); ``!= 0`` treats -0.0 and NaN like it.
        if self.pruning_mask is not None:
            mask = self.pruning_mask
            return 1.0 - np.count_nonzero(mask) / mask.size
        if self.weight_values is not None:
            flat = flat_view(self.weight_values)
            nonzero = sum(
                np.count_nonzero(flat[i : i + BLOCK] != 0)
                for i in range(0, flat.size, BLOCK)
            )
            return (flat.size - nonzero) / flat.size
        return 0.0

    def effective_weights(self) -> Optional[np.ndarray]:
        """Weight values with the pruning mask applied (None when values are absent)."""
        if self.weight_values is None:
            return None
        if self.pruning_mask is None:
            return self.weight_values
        return np.where(self.pruning_mask, self.weight_values, 0.0)

    def normalized_weights(self) -> Optional[np.ndarray]:
        """Weights scaled to [-1, 1], the native encoding range of analog devices.

        Memoized on the workload (workloads handed to the evaluation machinery
        are immutable -- mutate a copy between runs); the cached array is
        marked read-only so a repeated engine pass can never corrupt it.
        """
        if self.weight_values is None:
            return None
        cached = getattr(self, "_repro_normalized_weights", None)
        if cached is None:
            # Imported here: repro.onn imports this module.
            from repro.onn.quantize import peak_abs

            weights = self.effective_weights()
            peak = peak_abs(weights)
            cached = np.zeros_like(weights) if peak == 0.0 else weights / peak
            cached.setflags(write=False)
            self._repro_normalized_weights = cached
        return cached

    def normalized_inputs(self) -> Optional[np.ndarray]:
        """Activations scaled to [-1, 1]; memoized like :meth:`normalized_weights`."""
        if self.input_values is None:
            return None
        cached = getattr(self, "_repro_normalized_inputs", None)
        if cached is None:
            from repro.onn.quantize import peak_abs

            peak = peak_abs(self.input_values)
            cached = (
                np.zeros_like(self.input_values)
                if peak == 0.0
                else self.input_values / peak
            )
            cached.setflags(write=False)
            self._repro_normalized_inputs = cached
        return cached

    # -- transformations ------------------------------------------------------------------
    def with_bits(self, input_bits: int, weight_bits: int, output_bits: Optional[int] = None) -> "GEMMWorkload":
        """Return a copy with different operand bitwidths (for precision sweeps)."""
        return GEMMWorkload(
            name=self.name,
            m=self.m,
            n=self.n,
            k=self.k,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits if output_bits is not None else max(input_bits, weight_bits),
            layer_type=self.layer_type,
            weight_values=self.weight_values,
            input_values=self.input_values,
            pruning_mask=self.pruning_mask,
            weight_static=self.weight_static,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GEMMWorkload({self.name!r}, M={self.m}, N={self.n}, K={self.k}, "
            f"type={self.layer_type}, macs={self.num_macs})"
        )
