"""TorchONN-lite: a numpy neural-network substrate for workload extraction.

The real SimPhony interfaces with the TorchONN training library; the architecture
simulator, however, only consumes each layer's *workload description* -- GEMM shape,
operand bitwidths, pruning mask and actual operand values.  This package provides a
small, dependency-free NN substrate that produces exactly those records:

- :mod:`repro.onn.layers`    -- Module / Linear / Conv2d / attention / activation
  layers with numpy forward passes and GEMM extraction;
- :mod:`repro.onn.models`    -- the evaluation models (VGG-8 for CIFAR-10, a
  BERT-Base-class transformer encoder over image patches, an MLP);
- :mod:`repro.onn.convert`   -- digital-to-ONN layer conversion (quantization,
  pruning, device-value encoding, PTC assignment);
- :mod:`repro.onn.quantize`, :mod:`repro.onn.prune` -- co-design utilities;
- :mod:`repro.onn.workload`  -- end-to-end workload extraction.
"""

from repro.onn.layers import (
    Module,
    Sequential,
    Linear,
    Conv2d,
    MultiHeadAttention,
    ReLU,
    GELU,
    Flatten,
    MaxPool2d,
    AvgPool2d,
    BatchNorm2d,
    LayerNorm,
)
from repro.onn.convert import ONNConversionConfig, convert_to_onn
from repro.onn.quantize import (
    quantize_uniform,
    quantize_uniform_batch,
    quantization_error,
)
from repro.onn.prune import magnitude_prune_mask, apply_pruning
from repro.onn.workload import LayerWorkload, extract_workloads

__all__ = [
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "MultiHeadAttention",
    "ReLU",
    "GELU",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "LayerNorm",
    "ONNConversionConfig",
    "convert_to_onn",
    "quantize_uniform",
    "quantize_uniform_batch",
    "quantization_error",
    "magnitude_prune_mask",
    "apply_pruning",
    "LayerWorkload",
    "extract_workloads",
]
