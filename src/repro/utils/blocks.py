"""Cache-sized blocks for memory-bound elementwise kernels.

A chain of numpy ufuncs over a large array writes one full-size temporary per
step and streams every one of them through main memory.  Running the same chain
over :data:`BLOCK`-element slices keeps the intermediates in cache and lets one
scratch block serve every step.  Each element still sees the same operations
in the same order, so a blocked kernel is bit-identical to the whole-array
expression it replaces.  A kernel walks ``range(0, size, BLOCK)`` and slices
``[i : i + BLOCK]`` (numpy clips the last slice).

C- and F-contiguous arrays are walked through a flat view in memory order;
any other layout is copied once into C order.  There is one path for every
size: a small array is a single block.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Elements per block: 32 Ki float64 (256 KiB), so an input block, an output
#: block and one scratch block stay resident in a core's L2 cache.
BLOCK = 32768


def _contiguous(x: np.ndarray) -> np.ndarray:
    if x.flags.c_contiguous or x.flags.f_contiguous:
        return x
    return np.ascontiguousarray(x)


def flat_view(x: np.ndarray) -> np.ndarray:
    """``x``'s elements as a 1-D array in memory order.

    A view for C- or F-contiguous ``x``; a C-order copy for any other layout.
    ``reshape(-1)`` would silently copy an F-ordered array, so writes through
    it would be lost; ``ravel(order="K")`` of a contiguous array never copies.
    """
    return _contiguous(x).ravel(order="K")


def fresh_like(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, out, dst)`` for an elementwise kernel over ``x``.

    ``out`` is a fresh uninitialized array of ``x``'s shape (laid out like
    ``x`` when ``x`` is contiguous); ``src`` and ``dst`` are the flat views of
    ``x`` and ``out`` in the same element order, so ``dst[i]`` is the result
    slot of ``src[i]``.
    """
    x = _contiguous(x)
    out = np.empty_like(x)
    return x.ravel(order="K"), out, out.ravel(order="K")
