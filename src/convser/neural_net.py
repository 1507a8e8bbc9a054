"""The CNN-LSTM binary classifier with exact-gradient backpropagation.

Architecture: a 1D convolution applied independently to every timestep
(across the coefficient axis, single input channel, zero 'same' padding,
ReLU), per-timestep flatten, an LSTM over all timesteps, and a logistic
output unit reading the final hidden state.

model_forward is the one forward implementation: training, evaluation and
prediction all call it on a batch (B x T x n_mfcc), so the heavy matrix
products run as single BLAS calls across timesteps. A single sample is a
batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ParameterError

MODEL_FORMAT_VERSION = 1

# gate block order inside the stacked LSTM matrices, fixed for serialization
GATE_ORDER = ("input", "forget", "cell", "output")

GRID_FILTERS = (16, 32)
GRID_KERNELS = (5, 20)
GRID_LSTM_UNITS = (20, 40)
GRID_WIDTHS = (13, 40)


@dataclass
class ModelConfig:
    filters: int = 32
    kernel_size: int = 20
    lstm_units: int = 40
    n_mfcc: int = 40
    max_frames: int = 775

    def __post_init__(self):
        for name in ("filters", "kernel_size", "lstm_units", "n_mfcc", "max_frames"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")

    @property
    def flat_width(self) -> int:
        return self.n_mfcc * self.filters

    @property
    def in_paper_grid(self) -> bool:
        return (
            self.filters in GRID_FILTERS
            and self.kernel_size in GRID_KERNELS
            and self.lstm_units in GRID_LSTM_UNITS
            and self.n_mfcc in GRID_WIDTHS
        )


@dataclass
class ModelParams:
    """All trainable tensors; shapes are fully determined by ModelConfig."""

    config: ModelConfig
    conv_w: np.ndarray  # (kernel, 1, filters)
    conv_b: np.ndarray  # (filters,)
    lstm_w: np.ndarray  # (4*units, flat_width), gate blocks in GATE_ORDER
    lstm_u: np.ndarray  # (4*units, units)
    lstm_b: np.ndarray  # (4*units,)
    dense_w: np.ndarray  # (units,)
    dense_b: np.ndarray  # ()

    TENSOR_NAMES = ("conv_w", "conv_b", "lstm_w", "lstm_u", "lstm_b", "dense_w", "dense_b")

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self.TENSOR_NAMES}

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors().values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, *(getattr(self, n).copy() for n in self.TENSOR_NAMES))

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.config, *(getattr(self, n).astype(dtype) for n in self.TENSOR_NAMES)
        )


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(
        params.config, *(np.zeros_like(getattr(params, n)) for n in params.TENSOR_NAMES)
    )


def init_params(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParams:
    """Glorot-uniform weights, zero biases except the forget gate (set to 1).

    conv_b is stored like every other tensor, but training holds it at this
    zero initialisation (train_eval.TRAINED_TENSORS leaves it out)."""
    rng = np.random.default_rng(seed)
    u = config.lstm_units
    d = config.flat_width
    k = config.kernel_size

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    conv_w = glorot((k, 1, config.filters), k, k * config.filters)
    lstm_w = glorot((4 * u, d), d, 4 * u)
    lstm_u = glorot((4 * u, u), u, 4 * u)
    lstm_b = np.zeros(4 * u)
    lstm_b[u : 2 * u] = 1.0  # forget-gate bias, aids early gradient flow
    dense_w = glorot((u,), u, 1)
    params = ModelParams(
        config=config,
        conv_w=conv_w,
        conv_b=np.zeros(config.filters),
        lstm_w=lstm_w,
        lstm_u=lstm_u,
        lstm_b=lstm_b,
        dense_w=dense_w,
        dense_b=np.zeros(()),
    )
    return params.astype(dtype)


@dataclass
class ForwardTrace:
    """Per-layer activations cached by the forward pass for backprop."""

    x: np.ndarray            # (B, T, n_mfcc)
    windows: np.ndarray      # (B, T, n_mfcc, kernel) zero-padded input windows
    conv_pre: np.ndarray     # (B, T, n_mfcc, filters) pre-ReLU
    flat: np.ndarray         # (B, T, flat_width) LSTM inputs
    gates: np.ndarray        # (T, 4, B, units) sigma/tanh gate values in GATE_ORDER
    cell: np.ndarray         # (T, B, units) cell states
    tanh_cell: np.ndarray    # (T, B, units)
    h_prev: np.ndarray       # (T, B, units) hidden state entering each step
    h_final: np.ndarray      # (B, units)
    logit: np.ndarray        # (B,)
    prob: np.ndarray         # (B,)


def _sigmoid(x):
    x = np.asarray(x)
    shape = x.shape
    x = np.atleast_1d(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(shape)


def _clamp_prob(p):
    # keep probabilities strictly inside (0, 1) even for saturated logits
    tiny = np.finfo(p.dtype).tiny
    top = np.nextafter(p.dtype.type(1.0), p.dtype.type(0.0))
    return np.clip(p, tiny, top)


def _conv_windows(x, kernel_size):
    """Zero-padded sliding windows over the coefficient axis.

    x: (B, T, M) -> (B, T, M, K) with windows[..., i, k] = x_pad[..., i + k],
    pad_left = (K-1)//2, so output position i sees input positions
    i - pad_left .. i + K - 1 - pad_left ('same' padding).
    """
    k = kernel_size
    pad_left = (k - 1) // 2
    pad_right = k - 1 - pad_left
    xp = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_right)))
    return np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)


def _check_batch(x):
    x = np.asarray(x)
    if x.ndim != 3:
        raise ParameterError(
            f"expected a (batch, frames, width) array, got shape {x.shape}; "
            "pass one sample as a batch of one"
        )
    return x


def lstm_forward(inputs, params: ModelParams):
    """Run the LSTM over all timesteps from h0 = c0 = 0, returning the final
    hidden state and the per-step quantities needed for backprop."""
    x = _check_batch(inputs)
    b, t, d = x.shape
    u = params.config.lstm_units
    if d != params.lstm_w.shape[1]:
        raise ParameterError(f"lstm input width {d} != weight width {params.lstm_w.shape[1]}")

    dtype = params.lstm_w.dtype
    # one GEMM for the input projection of every timestep
    xw = (x.reshape(b * t, d) @ params.lstm_w.T).reshape(b, t, 4 * u) + params.lstm_b

    gates = np.empty((t, 4, b, u), dtype=dtype)
    cell = np.empty((t, b, u), dtype=dtype)
    tanh_cell = np.empty((t, b, u), dtype=dtype)
    h_prev_all = np.empty((t, b, u), dtype=dtype)
    h = np.zeros((b, u), dtype=dtype)
    c = np.zeros((b, u), dtype=dtype)
    for step in range(t):
        h_prev_all[step] = h
        z = xw[:, step, :] + h @ params.lstm_u.T
        i = _sigmoid(z[:, 0 * u : 1 * u])
        f = _sigmoid(z[:, 1 * u : 2 * u])
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = _sigmoid(z[:, 3 * u : 4 * u])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[step, 0], gates[step, 1], gates[step, 2], gates[step, 3] = i, f, g, o
        cell[step] = c
        tanh_cell[step] = tc

    cache = {"gates": gates, "cell": cell, "tanh_cell": tanh_cell, "h_prev": h_prev_all}
    return h, cache


def model_forward(features, params: ModelParams):
    """Full forward pass over a (B, T, n_mfcc) batch; returns the (B,)
    probabilities and the ForwardTrace that model_backward reads."""
    x = _check_batch(features)
    b, t, m = x.shape
    if m != params.config.n_mfcc:
        raise ParameterError(
            f"feature width {m} != model n_mfcc {params.config.n_mfcc}"
        )
    windows = _conv_windows(x, params.config.kernel_size)
    conv_pre = np.tensordot(windows, params.conv_w[:, 0, :], axes=([3], [0])) + params.conv_b
    # row-major flatten of each timestep: coefficient outer, filter inner
    flat = np.maximum(conv_pre, 0.0).reshape(b, t, m * params.config.filters)
    h_final, lstm_cache = lstm_forward(flat, params)
    logit = h_final @ params.dense_w + params.dense_b
    prob = _clamp_prob(_sigmoid(logit))
    trace = ForwardTrace(
        x=x,
        windows=windows,
        conv_pre=conv_pre,
        flat=flat,
        gates=lstm_cache["gates"],
        cell=lstm_cache["cell"],
        tanh_cell=lstm_cache["tanh_cell"],
        h_prev=lstm_cache["h_prev"],
        h_final=h_final,
        logit=logit,
        prob=prob,
    )
    return prob, trace


def bce_from_logit(logit, y):
    """Binary cross-entropy straight from the logit (numerically stable)."""
    z = np.asarray(logit, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def model_backward(trace: ForwardTrace, y, params: ModelParams) -> ModelParams:
    """Exact gradients of the mean binary cross-entropy over the traced batch
    with respect to every parameter (reverse mode through dense, LSTM over
    all timesteps, flatten, ReLU mask, and the convolution)."""
    b, t, m = trace.x.shape
    u = params.config.lstm_units
    y = np.atleast_1d(np.asarray(y, dtype=trace.prob.dtype))
    if y.shape != trace.prob.shape:
        raise ParameterError(f"labels shape {y.shape} != probabilities shape {trace.prob.shape}")

    grads = zeros_like_params(params)

    # output layer: dL/dlogit = (p - y) / B for the batch-mean loss
    dlogit = (trace.prob - y) / b
    grads.dense_w[...] = trace.h_final.T @ dlogit
    grads.dense_b[...] = dlogit.sum()
    dh = np.outer(dlogit, params.dense_w)

    # backprop through time
    dz_all = np.empty((t, b, 4 * u), dtype=trace.flat.dtype)
    dc = np.zeros((b, u), dtype=trace.flat.dtype)
    for step in range(t - 1, -1, -1):
        i, f, g, o = trace.gates[step]
        tc = trace.tanh_cell[step]
        c_prev = trace.cell[step - 1] if step > 0 else np.zeros_like(dc)

        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev

        dz = dz_all[step]
        dz[:, 0 * u : 1 * u] = di * i * (1.0 - i)
        dz[:, 1 * u : 2 * u] = df * f * (1.0 - f)
        dz[:, 2 * u : 3 * u] = dg * (1.0 - g * g)
        dz[:, 3 * u : 4 * u] = do * o * (1.0 - o)

        grads.lstm_u += dz.T @ trace.h_prev[step]
        dh = dz @ params.lstm_u
        dc = dc * f

    # input projections of all timesteps reduce to single GEMMs
    dz_flat = dz_all.transpose(1, 0, 2).reshape(b * t, 4 * u)
    grads.lstm_w[...] = dz_flat.T @ trace.flat.reshape(b * t, -1)
    grads.lstm_b[...] = dz_flat.sum(axis=0)
    dflat = (dz_flat @ params.lstm_w).reshape(b, t, -1)

    # flatten -> ReLU mask -> convolution
    dconv = dflat.reshape(b, t, m, params.config.filters)
    dpre = dconv * (trace.conv_pre > 0.0)
    grads.conv_w[:, 0, :] = np.tensordot(trace.windows, dpre, axes=([0, 1, 2], [0, 1, 2]))
    grads.conv_b[...] = dpre.sum(axis=(0, 1, 2))
    return grads


# --- Serialization ------------------------------------------------------------


def save_model(params: ModelParams, path, extra: dict | None = None) -> None:
    """Write a model as a single JSON document with explicit tensor shapes."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "gate_order": list(GATE_ORDER),
        "model_config": {
            "filters": params.config.filters,
            "kernel_size": params.config.kernel_size,
            "lstm_units": params.config.lstm_units,
            "n_mfcc": params.config.n_mfcc,
            "max_frames": params.config.max_frames,
        },
        "dtype": str(params.conv_w.dtype),
        "tensors": {
            name: {"shape": list(t.shape), "data": t.astype(np.float64).ravel().tolist()}
            for name, t in params.tensors().items()
        },
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> ModelParams:
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ParameterError(
            f"unsupported model format_version {doc.get('format_version')!r}"
        )
    if tuple(doc.get("gate_order", ())) != GATE_ORDER:
        raise ParameterError(f"unexpected gate order {doc.get('gate_order')!r}")
    config = ModelConfig(**doc["model_config"])
    dtype = np.dtype(doc.get("dtype", "float64"))
    tensors = {}
    for name in ModelParams.TENSOR_NAMES:
        entry = doc["tensors"][name]
        tensors[name] = np.array(entry["data"], dtype=dtype).reshape(entry["shape"])
    return ModelParams(config=config, **tensors)
