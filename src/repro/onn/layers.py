"""Numpy neural-network layers with GEMM workload extraction.

Layers implement two things:

- ``forward(x)``: a plain numpy inference pass, so realistic activation values can
  flow into the data-aware energy analysis;
- ``extract_gemms(x)``: the list of :class:`~repro.dataflow.gemm.GEMMWorkload`
  records the layer contributes (empty for activations / pooling / normalization,
  which the paper offloads to electrical processors), together with the layer
  output so extraction can proceed through the network.

Shapes follow the usual conventions: images are ``(channels, height, width)`` (a
single sample -- the paper evaluates single-image inference), token sequences are
``(tokens, features)``.

Conv2d lowers to a GEMM through an im2col patch matrix built with
``numpy.lib.stride_tricks.sliding_window_view`` -- a single strided copy
instead of an ``out_h x out_w`` Python loop.  ``tests/oracles.py`` keeps the
per-window loop as its bit-identity oracle.

Every layer additionally exposes :meth:`Module.forward_batch`, the
*trial-batched* forward used by the Monte Carlo variation studies: inputs (and,
for weighted layers, weights) carry a leading ``(trials, ...)`` axis so one
batched numpy call replaces ``trials`` Python-level forwards.  The base-class
fallback loops per trial with the exact serial semantics, so custom layers stay
correct without opting in.
"""

from __future__ import annotations

import contextlib
import copy
import math
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.gemm import GEMMWorkload

#: Environment knob selecting the trial-batched compute precision: ``float64``
#: (default, the bit-exact reference) or ``float32`` (an opt-in throughput mode
#: for non-reference studies -- half the memory traffic per GEMM).  Declared,
#: like every ``REPRO_*`` knob, in the central :mod:`repro.core.knobs` registry.
DTYPE_MODE_ENV = "REPRO_DTYPE"

_DTYPE_MODES = ("float64", "float32")


def _knob_raw(name: str) -> Optional[str]:
    """Registry-routed environment read (imported lazily: repro.core's package
    init pulls in the engine, which imports this module back through
    ``repro.onn.workload`` -- a module-level import here would cycle)."""
    from repro.core.knobs import raw_value

    return raw_value(name)

#: Thread-local mode override installed by :func:`pinned_modes`.  A Monte Carlo
#: study resolves its mode once and pins it around each trial chunk, so an
#: environment flip mid-study cannot change what the study computes.
_MODE_OVERRIDE = threading.local()


@contextlib.contextmanager
def pinned_modes(dtype: Optional[str] = None):
    """Run with :func:`dtype_mode` pinned to ``dtype``.

    ``None`` leaves the mode reading the environment as usual.  The override
    is thread-local and restores the previous pin on exit, so nested pins and
    concurrent threads stay independent.  Invalid mode names
    fail loudly here, at pin time, not deep inside a forward.
    """
    if dtype is not None and dtype not in _DTYPE_MODES:
        raise ValueError(
            f"dtype mode must be one of {', '.join(_DTYPE_MODES)}, got {dtype!r}"
        )
    previous = getattr(_MODE_OVERRIDE, "dtype", None)
    if dtype is not None:
        _MODE_OVERRIDE.dtype = dtype
    try:
        yield
    finally:
        _MODE_OVERRIDE.dtype = previous


def dtype_mode() -> str:
    """The active batched-compute precision: ``"float64"`` or ``"float32"``.

    A :func:`pinned_modes` override (a running Monte Carlo study) wins;
    otherwise ``$REPRO_DTYPE`` is read on every call so tests and benchmarks
    can flip the mode without re-importing.  The float32 mode applies to the
    *trial-batched* Monte Carlo path only; the serial reference forwards
    always compute in float64, and committed tables are only reproduced in
    the default mode.
    """
    pinned = getattr(_MODE_OVERRIDE, "dtype", None)
    if pinned is not None:
        return pinned
    mode = (_knob_raw(DTYPE_MODE_ENV) or "float64").strip().lower()
    if mode not in _DTYPE_MODES:
        raise ValueError(
            f"{DTYPE_MODE_ENV} must be one of {', '.join(_DTYPE_MODES)}, "
            f"got {mode!r}"
        )
    return mode


def compute_dtype() -> np.dtype:
    """The numpy dtype of the active :func:`dtype_mode`."""
    return np.dtype(np.float32 if dtype_mode() == "float32" else np.float64)


def _as_float(x: np.ndarray) -> np.ndarray:
    """``x`` as a floating array, without copying already-float inputs.

    ``np.asarray(x, dtype=float)`` silently upcasts (and therefore copies)
    float32 stacks back to float64, defeating ``REPRO_DTYPE=float32``; this
    keeps whatever float precision the caller chose and only converts
    non-float inputs.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    return arr


def _match_dtype(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``x`` cast to ``dtype`` only when it differs (no-op in reference mode)."""
    return x if x.dtype == dtype else x.astype(dtype)


def _read_only(view: np.ndarray) -> np.ndarray:
    """Mark a GEMM operand view read-only and return it.

    Workload records hold views of model weights and activations, not copies:
    a copy of every weight matrix would double extraction's memory.  Writes
    through a record fail loudly; layers only ever *rebind* their weight
    (conversion, variation clones), so a recorded view keeps the values it saw.
    """
    view.setflags(write=False)
    return view


# -- reusable scratch buffers ----------------------------------------------------------


class Workspace:
    """A pool of 64-byte-aligned, keyed scratch buffers reused across calls.

    The trial-batched forwards allocate the same large temporaries (im2col
    patch matrices, fused draw blocks) once per layer per chunk; a workspace
    hands back the *same* backing memory on every request with the same key,
    growing it only when a larger shape is asked for.  Buffers are aligned to
    64-byte boundaries so BLAS and the vectorized ufunc loops see aligned
    operands regardless of numpy's allocator.

    A workspace is intentionally not thread-safe: each worker activates its own
    via :func:`scratch_workspace` (thread-local), which is what makes reuse
    safe when several threads run forwards at once.
    """

    def __init__(self) -> None:
        self._raw: Dict[str, np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialized ``shape``/``dtype`` view over the keyed buffer."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        raw = self._raw.get(key)
        if raw is None or raw.nbytes < size + 64:
            raw = self._raw[key] = np.empty(size + 64, dtype=np.uint8)
        offset = (-raw.ctypes.data) % 64
        return raw[offset : offset + size].view(dtype).reshape(shape)


_WORKSPACE_TLS = threading.local()


def active_workspace() -> Optional[Workspace]:
    """The calling thread's active workspace, or ``None`` outside any scope."""
    return getattr(_WORKSPACE_TLS, "workspace", None)


@contextlib.contextmanager
def scratch_workspace() -> Iterator[Workspace]:
    """Activate a scratch workspace for the calling thread's forwards.

    Re-entrant: nested scopes share the outermost workspace, so a chunk-level
    scope (``montecarlo._run_trial_chunk``) covers every layer underneath it.
    """
    existing = active_workspace()
    if existing is not None:
        yield existing
        return
    workspace = Workspace()
    _WORKSPACE_TLS.workspace = workspace
    try:
        yield workspace
    finally:
        _WORKSPACE_TLS.workspace = None


class Module:
    """Base class for all layers.  Mirrors a minimal subset of the torch.nn API."""

    def __init__(self, name: str = "") -> None:
        self.name = name or self.__class__.__name__.lower()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def extract_gemms(self, x: np.ndarray) -> Tuple[List[GEMMWorkload], np.ndarray]:
        """Default: no GEMM contribution; pass activations through."""
        return [], self.forward(x)

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Forward a ``(trials, ...)`` stack of inputs, one output per trial.

        ``weight``, when given, is a ``(trials, *weight_shape)`` stack of
        per-trial weights replacing the layer's own (the Monte Carlo variation
        path).  The base implementation loops per trial with the exact serial
        clone-and-forward semantics, so any layer is batchable; vectorizable
        layers override this with a single numpy call.
        """
        x = _as_float(x)
        if weight is None:
            return np.stack([self.forward(x[i]) for i in range(x.shape[0])])
        outputs = []
        for i in range(x.shape[0]):
            clone = copy.copy(self)
            clone.weight = weight[i]
            if hasattr(clone, "pruning_mask"):
                clone.pruning_mask = None
            outputs.append(clone.forward(x[i]))
        return np.stack(outputs)

    def children(self) -> Iterable["Module"]:
        return []

    def modules(self) -> Iterable["Module"]:
        """This module followed by all descendants (depth first)."""
        yield self
        for child in self.children():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(child.num_parameters() for child in self.children())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


class Sequential(Module):
    """A linear container of layers."""

    def __init__(self, *layers: Module, name: str = "sequential") -> None:
        super().__init__(name=name)
        self.layers: List[Module] = []
        for idx, layer in enumerate(layers):
            if not isinstance(layer, Module):
                raise TypeError(f"Sequential expects Module instances, got {type(layer)}")
            if layer.name == layer.__class__.__name__.lower():
                layer.name = f"{name}.{idx}_{layer.__class__.__name__.lower()}"
            self.layers.append(layer)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def children(self) -> Iterable[Module]:
        return list(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def extract_gemms(self, x: np.ndarray) -> Tuple[List[GEMMWorkload], np.ndarray]:
        gemms: List[GEMMWorkload] = []
        for layer in self.layers:
            layer_gemms, x = layer.extract_gemms(x)
            gemms.extend(layer_gemms)
        return gemms, x

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if weight is not None:
            raise ValueError("Sequential has no weights of its own")
        for layer in self.layers:
            x = layer.forward_batch(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class Linear(Module):
    """Fully connected layer ``y = x @ W^T + b`` (weights shaped ``(out, in)``)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name=name)
        if in_features < 1 or out_features < 1:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / math.sqrt(in_features)
        self.weight = rng.uniform(-scale, scale, size=(out_features, in_features))
        self.bias = np.zeros(out_features) if bias else None
        # Populated by the ONN conversion pass.
        self.input_bits = 8
        self.weight_bits = 8
        self.output_bits = 8
        self.pruning_mask: Optional[np.ndarray] = None
        self.ptc_type: Optional[str] = None

    def num_parameters(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = False
        if x.ndim == 1:
            x = x[None, :]
            squeeze = True
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        weight = self.effective_weight()
        y = x @ weight.T
        if self.bias is not None:
            y += self.bias  # y is fresh from the matmul
        return y[0] if squeeze else y

    def effective_weight(self) -> np.ndarray:
        if self.pruning_mask is None:
            return self.weight
        return np.where(self.pruning_mask, self.weight, 0.0)

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched ``y = x @ W^T + b`` with an optional per-trial weight stack.

        ``x`` is ``(trials, ..., in_features)``; ``weight`` (when given) is
        ``(trials, out_features, in_features)``.  Wherever one operand is
        shared across trials the per-trial stack collapses into a *single*
        2-D BLAS GEMM over a ``(trials*out, in)`` (or ``(trials*rows, in)``)
        reshape -- one large GEMM instead of ``trials`` small ones -- and the
        collapse is bit-identical to the batched matmul because the k-dim
        reduction order per output element is unchanged.
        """
        x = _as_float(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        trials = x.shape[0]
        if weight is None:
            # The layer's own weights are shared by every trial: flatten all
            # leading axes into one GEMM m-dimension.
            w = _match_dtype(self.effective_weight(), x.dtype)
            flat = np.ascontiguousarray(x.reshape(-1, self.in_features))
            y = (flat @ w.T).reshape(x.shape[:-1] + (self.out_features,))
        else:
            w = _as_float(weight)
            if x.ndim == 2 and x.strides[0] == 0:
                # Shared input vector, per-trial weights: one (trials*out, in)
                # x (in,) matvec-GEMM instead of trials small ones.
                y = (w.reshape(trials * self.out_features, self.in_features) @ x[0]).reshape(
                    trials, self.out_features
                )
            elif x.ndim == 2:  # one vector per trial
                y = np.einsum("ti,toi->to", x, w)
            elif x.strides[0] == 0:
                # Shared (rows, in) input, per-trial weights: one GEMM against
                # the stacked (trials*out, in) weight view, then unstack.
                stacked = w.reshape(trials * self.out_features, self.in_features)
                y = (x[0] @ stacked.T).reshape(
                    x.shape[1:-1] + (trials, self.out_features)
                )
                y = np.moveaxis(y, -2, 0)
            else:
                y = np.matmul(x, np.swapaxes(w, -1, -2))
        if self.bias is not None:
            y = y + _match_dtype(self.bias, y.dtype)
        return y

    def extract_gemms(self, x: np.ndarray) -> Tuple[List[GEMMWorkload], np.ndarray]:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x[None, :]
        weight = self.effective_weight()
        gemm = GEMMWorkload(
            name=self.name,
            m=flat.shape[0],
            n=self.out_features,
            k=self.in_features,
            input_bits=self.input_bits,
            weight_bits=self.weight_bits,
            output_bits=self.output_bits,
            layer_type="linear",
            weight_values=_read_only(weight.T),
            input_values=_read_only(flat),
            pruning_mask=None if self.pruning_mask is None else _read_only(self.pruning_mask.T),
            weight_static=True,
        )
        return [gemm], self.forward(x)


class Conv2d(Module):
    """2D convolution on a single ``(C, H, W)`` sample, lowered to GEMM via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name=name)
        if min(in_channels, out_channels, kernel_size) < 1:
            raise ValueError("channels and kernel size must be positive")
        if stride < 1 or padding < 0:
            raise ValueError("invalid stride/padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        scale = 1.0 / math.sqrt(fan_in)
        self.weight = rng.uniform(
            -scale, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        self.bias = np.zeros(out_channels) if bias else None
        self.input_bits = 8
        self.weight_bits = 8
        self.output_bits = 8
        self.pruning_mask: Optional[np.ndarray] = None
        self.ptc_type: Optional[str] = None

    def num_parameters(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def output_hw(self, height: int, width: int) -> Tuple[int, int]:
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(
                f"{self.name}: input {height}x{width} too small for kernel "
                f"{self.kernel_size}, stride {self.stride}, padding {self.padding}"
            )
        return out_h, out_w

    def _im2col(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Lower ``(C, H, W)`` to the ``(out_h*out_w, C*k*k)`` patch matrix.

        One strided view plus one copy, no Python loop: row ``i*out_w + j``
        holds the ravel of the ``(C, k, k)`` patch at window ``(i, j)``.
        """
        channels, height, width = x.shape
        out_h, out_w = self.output_hw(height, width)
        padded = np.pad(
            x, ((0, 0), (self.padding, self.padding), (self.padding, self.padding))
        )
        k = self.kernel_size
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
        windows = windows[:, :: self.stride, :: self.stride]  # (C, out_h, out_w, k, k)
        cols = windows.transpose(1, 2, 0, 3, 4).reshape(out_h * out_w, channels * k * k)
        return cols, (out_h, out_w)

    def _im2col_batch(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        """im2col over a ``(trials, C, H, W)`` stack -> ``(trials, P, C*k*k)``.

        When a scratch workspace is active (the chunked Monte Carlo path) the
        patch matrix is written into a reused aligned buffer instead of a fresh
        allocation per layer call.
        """
        trials, channels, height, width = x.shape
        out_h, out_w = self.output_hw(height, width)
        padded = np.pad(
            x,
            ((0, 0), (0, 0), (self.padding, self.padding), (self.padding, self.padding)),
        )
        k = self.kernel_size
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
        windows = windows[:, :, :: self.stride, :: self.stride]
        view = windows.transpose(0, 2, 3, 1, 4, 5)  # (t, out_h, out_w, C, k, k)
        workspace = active_workspace()
        if workspace is None:
            cols = view.reshape(trials, out_h * out_w, channels * k * k)
            return cols, (out_h, out_w)
        cols = workspace.take(
            f"im2col:{self.name}", (trials, out_h * out_w, channels * k * k), x.dtype
        )
        np.copyto(cols.reshape(view.shape), view)
        return cols, (out_h, out_w)

    def effective_weight(self) -> np.ndarray:
        if self.pruning_mask is None:
            return self.weight
        return np.where(self.pruning_mask, self.weight, 0.0)

    def _lower(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int], np.ndarray]:
        """The im2col patches of ``x``, the output size and the 2-D weight."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (C={self.in_channels}, H, W) input, got {x.shape}"
            )
        cols, out_hw = self._im2col(x)
        return cols, out_hw, self.effective_weight().reshape(self.out_channels, -1)

    def _output(
        self, cols: np.ndarray, out_hw: Tuple[int, int], weight: np.ndarray
    ) -> np.ndarray:
        """``(out_c, out_h, out_w)`` output of the lowered GEMM ``cols @ weight.T``."""
        out = cols @ weight.T
        if self.bias is not None:
            out = out + self.bias
        return out.T.reshape(self.out_channels, *out_hw)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._output(*self._lower(x))

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched convolution: ``x`` is ``(trials, C, H, W)``, ``weight``
        (when given) a ``(trials, out_c, C, k, k)`` per-trial stack."""
        x = _as_float(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (trials, C={self.in_channels}, H, W) "
                f"input, got {x.shape}"
            )
        trials = x.shape[0]
        shared_cols = None
        if x.strides[0] == 0:
            # All trials share one input (a broadcast stack, e.g. the first
            # weighted layer of a Monte Carlo study): build the patch matrix
            # once -- the per-trial weight stack then collapses into a single
            # (P, C*k*k) x (C*k*k, trials*out_c) GEMM below.
            shared_cols, (out_h, out_w) = self._im2col(x[0])
            cols = np.broadcast_to(shared_cols, (trials,) + shared_cols.shape)
        else:
            cols, (out_h, out_w) = self._im2col_batch(x)
        patch = self.in_channels * self.kernel_size * self.kernel_size
        if weight is None:
            w2 = _match_dtype(self.effective_weight().reshape(self.out_channels, -1), x.dtype)
            if shared_cols is not None:
                out = np.broadcast_to(shared_cols @ w2.T, (trials,) + (cols.shape[1], self.out_channels))
            else:
                # One GEMM over all trials' rows instead of a stacked matmul.
                flat = cols.reshape(trials * cols.shape[1], patch)
                out = (flat @ w2.T).reshape(trials, cols.shape[1], self.out_channels)
        else:
            w2 = _as_float(weight).reshape(trials, self.out_channels, patch)
            if shared_cols is not None:
                # Fused GEMM: the shared patch matrix against the stacked
                # (trials*out_c, patch) weight view, unstacked afterwards.
                stacked = w2.reshape(trials * self.out_channels, patch)
                out = (shared_cols @ stacked.T).reshape(
                    cols.shape[1], trials, self.out_channels
                )
                out = out.transpose(1, 0, 2)
            else:
                out = np.matmul(cols, np.swapaxes(w2, -1, -2))
        if self.bias is not None:
            out = out + _match_dtype(self.bias, out.dtype)
        return np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(
            trials, self.out_channels, out_h, out_w
        )

    def extract_gemms(self, x: np.ndarray) -> Tuple[List[GEMMWorkload], np.ndarray]:
        cols, out_hw, weight = self._lower(x)
        mask = (
            None
            if self.pruning_mask is None
            else _read_only(self.pruning_mask.reshape(self.out_channels, -1).T)
        )
        gemm = GEMMWorkload(
            name=self.name,
            m=cols.shape[0],
            n=self.out_channels,
            k=cols.shape[1],
            input_bits=self.input_bits,
            weight_bits=self.weight_bits,
            output_bits=self.output_bits,
            layer_type="conv",
            weight_values=_read_only(weight.T),
            input_values=_read_only(cols),
            pruning_mask=mask,
            weight_static=True,
        )
        # The output reuses the patch matrix built above instead of a second im2col.
        return [gemm], self._output(cols, out_hw, weight)


class MultiHeadAttention(Module):
    """Multi-head self-attention over a ``(tokens, embed_dim)`` sequence.

    Contributes the Q/K/V/output projections plus the two *dynamic* matmuls
    (``Q K^T`` and ``A V``) whose operands both change every inference -- the
    workloads that only dynamically-reconfigurable PTCs can serve without a
    reconfiguration penalty.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name=name)
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        rng = rng or np.random.default_rng(0)
        self.w_q = Linear(embed_dim, embed_dim, name=f"{name or 'attn'}.q_proj", rng=rng)
        self.w_k = Linear(embed_dim, embed_dim, name=f"{name or 'attn'}.k_proj", rng=rng)
        self.w_v = Linear(embed_dim, embed_dim, name=f"{name or 'attn'}.v_proj", rng=rng)
        self.w_o = Linear(embed_dim, embed_dim, name=f"{name or 'attn'}.out_proj", rng=rng)
        self.input_bits = 8
        self.weight_bits = 8
        self.output_bits = 8

    def children(self) -> Iterable[Module]:
        return [self.w_q, self.w_k, self.w_v, self.w_o]

    @staticmethod
    def _softmax(x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def _heads(self, x: np.ndarray) -> np.ndarray:
        tokens = x.shape[0]
        return x.reshape(tokens, self.num_heads, self.head_dim).transpose(1, 0, 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.embed_dim:
            raise ValueError(
                f"{self.name}: expected (tokens, {self.embed_dim}) input, got {x.shape}"
            )
        q, k, v = self.w_q(x), self.w_k(x), self.w_v(x)
        qh, kh, vh = self._heads(q), self._heads(k), self._heads(v)
        scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(self.head_dim)
        attn = self._softmax(scores)
        context = attn @ vh
        tokens = x.shape[0]
        merged = context.transpose(1, 0, 2).reshape(tokens, self.embed_dim)
        return self.w_o(merged)

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Trial-batched attention over a ``(trials, tokens, embed_dim)`` stack.

        All heads of all trials run through einsum-batched score/context
        contractions -- no per-trial or per-head Python loop.  Projections use
        the layer's own weights (attention carries no top-level ``weight``, so
        the variation path never perturbs it directly).
        """
        if weight is not None:
            raise ValueError("MultiHeadAttention has no top-level weight stack")
        x = _as_float(x)
        if x.ndim == 2:
            return self.forward(x)
        if x.ndim != 3 or x.shape[-1] != self.embed_dim:
            raise ValueError(
                f"{self.name}: expected (trials, tokens, {self.embed_dim}) "
                f"input, got {x.shape}"
            )
        trials, tokens = x.shape[0], x.shape[1]
        q, k, v = self.w_q.forward_batch(x), self.w_k.forward_batch(x), self.w_v.forward_batch(x)

        def heads(y: np.ndarray) -> np.ndarray:
            return y.reshape(trials, tokens, self.num_heads, self.head_dim)

        qh, kh, vh = heads(q), heads(k), heads(v)
        scores = np.einsum("tqhd,tkhd->thqk", qh, kh, optimize=True) / math.sqrt(
            self.head_dim
        )
        attn = self._softmax(scores)
        context = np.einsum("thqk,tkhd->tqhd", attn, vh, optimize=True)
        merged = context.reshape(trials, tokens, self.embed_dim)
        return self.w_o.forward_batch(merged)

    def extract_gemms(self, x: np.ndarray) -> Tuple[List[GEMMWorkload], np.ndarray]:
        x = np.asarray(x, dtype=float)
        tokens = x.shape[0]
        gemms: List[GEMMWorkload] = []
        projected = []
        for proj in (self.w_q, self.w_k, self.w_v):
            proj_gemms, out = proj.extract_gemms(x)
            gemms.extend(proj_gemms)
            projected.append(out)
        qh, kh, vh = (self._heads(y) for y in projected)
        # Dynamic attention matmuls (one GEMM record per head, operands both
        # data dependent).  The scores/attention tensors are computed once,
        # batched over heads, and sliced into the per-head records.
        scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(self.head_dim)
        attn = self._softmax(scores)
        for head in range(self.num_heads):
            gemms.append(
                GEMMWorkload(
                    name=f"{self.name}.qk_head{head}",
                    m=tokens,
                    n=tokens,
                    k=self.head_dim,
                    input_bits=self.input_bits,
                    weight_bits=self.input_bits,
                    output_bits=self.output_bits,
                    layer_type="attention",
                    weight_values=_read_only(kh[head].T),
                    input_values=_read_only(qh[head]),
                    weight_static=False,
                )
            )
        for head in range(self.num_heads):
            gemms.append(
                GEMMWorkload(
                    name=f"{self.name}.av_head{head}",
                    m=tokens,
                    n=self.head_dim,
                    k=tokens,
                    input_bits=self.input_bits,
                    weight_bits=self.input_bits,
                    output_bits=self.output_bits,
                    layer_type="attention",
                    weight_values=_read_only(vh[head]),
                    input_values=_read_only(attn[head]),
                    weight_static=False,
                )
            )
        context = (attn @ vh).transpose(1, 0, 2).reshape(tokens, self.embed_dim)
        out_gemms, out = self.w_o.extract_gemms(context)
        gemms.extend(out_gemms)
        return gemms, out


class _ElementwiseModule(Module):
    """A layer whose forward is shape-agnostic: batching is the same call."""

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if weight is not None:
            raise ValueError(f"{type(self).__name__} takes no weight stack")
        return self.forward(x)


class ReLU(_ElementwiseModule):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(_as_float(x), 0.0)


class GELU(_ElementwiseModule):
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        # x * x * x, not x**3: numpy's generic pow path is ~6x slower here.
        # The two differ in the last bit on some elements; the committed
        # tables were checked byte-identical with this form.  The cube stays
        # inline so its temporary is freed before tanh allocates.
        return 0.5 * x * (
            1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x)))
        )


class Flatten(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return _as_float(x).ravel()

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if weight is not None:
            raise ValueError("Flatten takes no weight stack")
        x = _as_float(x)
        return x.reshape(x.shape[0], -1)


class MaxPool2d(Module):
    """Max pooling on a ``(C, H, W)`` sample with square window and stride = window."""

    def __init__(self, kernel_size: int, name: str = "") -> None:
        super().__init__(name=name)
        if kernel_size < 1:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size

    @staticmethod
    def _windowed(x: np.ndarray, k: int) -> np.ndarray:
        """Reshape trailing ``(H, W)`` into ``(out_h, k, out_w, k)`` windows."""
        *lead, height, width = x.shape
        out_h, out_w = height // k, width // k
        trimmed = x[..., : out_h * k, : out_w * k]
        return trimmed.reshape(*lead, out_h, k, out_w, k)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        return self._windowed(x, self.kernel_size).max(axis=(-3, -1))

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if weight is not None:
            raise ValueError(f"{type(self).__name__} takes no weight stack")
        # The window reduction already operates on the trailing axes only.
        return self.forward(x)


class AvgPool2d(MaxPool2d):
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        return self._windowed(x, self.kernel_size).mean(axis=(-3, -1))


class BatchNorm2d(Module):
    """Inference-mode batch normalization: a per-channel affine transform."""

    def __init__(self, num_channels: int, name: str = "") -> None:
        super().__init__(name=name)
        self.num_channels = num_channels
        self.scale = np.ones(num_channels)
        self.shift = np.zeros(num_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.num_channels:
            raise ValueError(f"{self.name}: expected {self.num_channels} channels")
        return x * self.scale[:, None, None] + self.shift[:, None, None]

    def forward_batch(
        self, x: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if weight is not None:
            raise ValueError("BatchNorm2d takes no weight stack")
        x = _as_float(x)
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"{self.name}: expected (trials, {self.num_channels}, H, W), "
                f"got {x.shape}"
            )
        scale = _match_dtype(self.scale, x.dtype)
        shift = _match_dtype(self.shift, x.dtype)
        return x * scale[:, None, None] + shift[:, None, None]


class LayerNorm(_ElementwiseModule):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5, name: str = "") -> None:
        super().__init__(name=name)
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.scale = np.ones(normalized_dim)
        self.shift = np.zeros(normalized_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        scale = _match_dtype(self.scale, x.dtype)
        shift = _match_dtype(self.shift, x.dtype)
        return (x - mean) / np.sqrt(var + self.eps) * scale + shift
