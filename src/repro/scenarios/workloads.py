"""Workload builders shared by the registered scenarios (and the examples).

These are the fixed tensors of the paper's evaluation section, formerly
duplicated across ``benchmarks/helpers.py`` and several example scripts.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.gemm import GEMMWorkload

#: Default layer widths of the Monte Carlo accuracy classifier.
MC_CLASSIFIER_SIZES = (16, 24, 12, 6)


def mc_classifier_model(seed: int = 3, layer_sizes=MC_CLASSIFIER_SIZES):
    """The small ReLU MLP classifier the variation scenarios evaluate.

    Deliberately tiny (a few thousand MACs per sample) so a full Monte Carlo
    study stays in scenario-smoke territory; the model seed is a scenario
    parameter so robustness studies can vary the weights without editing source.
    """
    from repro.onn.models import build_mlp

    return build_mlp(tuple(layer_sizes), rng=np.random.default_rng(seed))


def mc_classifier_inputs(
    samples: int = 48, features: int = MC_CLASSIFIER_SIZES[0], seed: int = 9
) -> np.ndarray:
    """The fixed evaluation batch fed to the Monte Carlo classifier."""
    if samples < 1 or features < 1:
        raise ValueError("samples and features must be positive")
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(samples, features))


def paper_gemm(bits: int = 8, seed: int = 0) -> GEMMWorkload:
    """The (280x28) x (28x280) GEMM used for the TeMPO validation and sweeps."""
    rng = np.random.default_rng(seed)
    return GEMMWorkload(
        "gemm_280x28_28x280",
        m=280,
        k=28,
        n=280,
        input_bits=bits,
        weight_bits=bits,
        output_bits=bits,
        weight_values=rng.normal(0.0, 0.25, size=(28, 280)),
        input_values=rng.normal(0.0, 0.5, size=(280, 28)),
    )


def scatter_conv_workload(seed: int = 7) -> GEMMWorkload:
    """The SCATTER convolution layer of the Fig. 10(b) data-awareness study."""
    rng = np.random.default_rng(seed)
    return GEMMWorkload(
        "scatter_conv_layer",
        m=1024,
        k=16,
        n=16,
        weight_values=rng.normal(0.0, 0.25, size=(16, 16)),
        input_values=rng.normal(0.0, 0.5, size=(1024, 16)),
    )


def large_grid_workloads(seed: int = 11) -> list:
    """Three data-carrying transformer-block GEMMs for the large-grid DSE studies.

    Sized so one full evaluation does real per-point work (operand-dependent
    energy over ~1.5 MB of tensors), which is what makes the 192-point grid
    a real load for the process backend, not just dispatch overhead.
    """
    rng = np.random.default_rng(seed)

    def block(name: str, m: int, k: int, n: int) -> GEMMWorkload:
        return GEMMWorkload(
            name,
            m=m,
            k=k,
            n=n,
            weight_values=rng.normal(0.0, 0.25, size=(k, n)),
            input_values=rng.normal(0.0, 0.5, size=(m, k)),
        )

    return [
        block("blk_qkv", 512, 256, 768),
        block("blk_ffn_in", 512, 256, 1024),
        block("blk_ffn_out", 512, 1024, 256),
    ]


def ablation_workload(seed: int = 5) -> GEMMWorkload:
    """The mid-size layer used by the modeling-feature ablation study."""
    rng = np.random.default_rng(seed)
    return GEMMWorkload(
        "ablation_layer",
        m=512,
        k=16,
        n=16,
        weight_values=rng.normal(0, 0.25, size=(16, 16)),
        input_values=rng.normal(0, 0.5, size=(512, 16)),
    )
