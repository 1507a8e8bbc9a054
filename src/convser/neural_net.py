"""The CNN-LSTM binary classifier with exact-gradient backpropagation.

Architecture: a 1D convolution applied independently to every timestep
(across the coefficient axis, single input channel, zero 'same' padding,
ReLU), per-timestep flatten, an LSTM over all timesteps, and a logistic
output unit reading the final hidden state.

One forward implementation in two stages serves training, evaluation and
prediction. The input stage (_conv_relu, _project) runs the convolution,
its ReLU and the LSTM input projection of a batch (B x T x n_mfcc) as single
BLAS calls across timesteps; the recurrence (_recurrence) is the LSTM step
loop. model_forward runs both on a training batch and keeps the trace
model_backward reads. model_score, which evaluate and predict call, keeps
no trace: it runs the input stage per batch and one step loop over all
rows, remainder batch included. A single sample is a batch of one.

The LSTM steps are stacked over the four gate blocks: each forward step
makes one sigmoid call over all gates (tanh then overwrites the cell block),
and each backpropagation-through-time step writes the pre-activation
gradient of all gates as one product, from gate factors computed once before
the loop. Every multiplication keeps the operands and order of the per-gate
form, so a batch without padding to skip gets the traces and gradients of
the per-gate form bit for bit (the per-gate form is the reference in the
tests).

Samples are zero-padded at the tail to a fixed frame count, and the products
skip that padding when it is at least a quarter of the frames, where
skipping pays. _conv_relu decides once per batch how many leading frames n
every product runs over: the frames before the batch's trailing all-zero
frames (see _live_frames) when conv_b is all zero, as training holds it,
else all T. An all-zero frame's product row is exactly +0 for finite
weights, so with a zero conv_b a skipped frame's conv_pre and ReLU rows are
+0, its projection 0 + lstm_b and its dpre rows zero. The convolution, its
ReLU, the LSTM input projection, the input gradient dflat, the ReLU mask it
passes through and the lstm_w, conv_w and conv_b gradients all read n
frames; the LSTM step loops run all T steps. Only model_forward pads: its
trace keeps conv_pre and the ReLU output at all T frames, their padding on
zero pages the OS maps in only when written (see _demand_zero).

The bit contract is one OpenBLAS thread: train_eval.map_tasks runs every
task on one, and evaluate and predict score on one, so on any CPU a run
repeats its bits at every --jobs value. A product's last bits may depend on
its shape, as a BLAS picks kernels and blocks its sums by size, so a batch
that skips its padding, and model_score's products over more rows than a
batch, agree with the full-size batch-by-batch form to rounding, not bit
for bit.
"""

from __future__ import annotations

import base64
import json
import math
import mmap
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .exceptions import FormatError, ParameterError

MODEL_FORMAT_VERSION = 2

# gate block order inside the stacked LSTM matrices, fixed for serialization
GATE_ORDER = ("input", "forget", "cell", "output")


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
    def tensor_shapes(self) -> dict:
        """Shape of every ModelParams tensor, in TENSOR_NAMES order."""
        u, f = self.lstm_units, self.filters
        return {
            "conv_w": (self.kernel_size, 1, f),
            "conv_b": (f,),
            "lstm_w": (4 * u, self.flat_width),
            "lstm_u": (4 * u, u),
            "lstm_b": (4 * u,),
            "dense_w": (u,),
            "dense_b": (),
        }


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

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.config, *(getattr(self, n).astype(dtype) for n in self.TENSOR_NAMES)
        )


def init_params(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParams:
    """Glorot-uniform weights, zero biases except the forget gate (set to 1).

    conv_b is stored like every other tensor, but training holds it at this
    zero initialisation (train_eval.TRAINED_TENSORS leaves it out)."""
    rng = np.random.default_rng(seed)
    shapes = config.tensor_shapes
    u = config.lstm_units
    d = config.flat_width
    k = config.kernel_size

    def glorot(name, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shapes[name])

    tensors = {
        "conv_w": glorot("conv_w", k, k * config.filters),
        "lstm_w": glorot("lstm_w", d, 4 * u),
        "lstm_u": glorot("lstm_u", u, 4 * u),
        "dense_w": glorot("dense_w", u, 1),
    }
    for name in ("conv_b", "lstm_b", "dense_b"):
        tensors[name] = np.zeros(shapes[name])
    tensors["lstm_b"][u : 2 * u] = 1.0  # forget-gate bias, aids early gradient flow
    params = ModelParams(config=config, **tensors)
    return params.astype(dtype)


@dataclass
class ForwardTrace:
    """Per-layer activations cached by the forward pass for backprop.

    Every array spans all T frames. When the batch skipped its padding
    (live < T, see _conv_relu), frames live.. of conv_pre and flat hold +0 on
    demand-zero pages (see _demand_zero); model_backward reads neither
    there."""

    x: np.ndarray            # (B, T, n_mfcc)
    live: int                # leading frames the products ran over (see _conv_relu)
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
    """The logistic function in its two overflow-free forms, 1 / (1 + e^-x)
    for x >= 0 and e^x / (1 + e^x) for x < 0, both from e = exp(-|x|).

    The numerator is picked without a select: max(e, 1) is 1 where x >= 0
    (e <= 1 there) and max(e, 0) is e where x < 0, NaN staying NaN, so each
    element gets the bits of its own form."""
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.maximum(e, (x >= 0).astype(e.dtype)) / (1.0 + e)


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


def _check_features(features, params: ModelParams):
    x = _check_batch(features)
    if x.shape[2] != params.config.n_mfcc:
        raise ParameterError(
            f"feature width {x.shape[2]} != model n_mfcc {params.config.n_mfcc}"
        )
    return x


def _live_frames(x):
    """The frames before the trailing all-zero frames of a (B, T, ...) batch,
    x[:, n:] being zero in every sample, when those number at least T // 4;
    otherwise T.

    Skipping costs a copy of the live rows and fresh arrays for the results;
    on C6-shaped M8-40 batches (T = 60) it paid from about 8 skipped frames
    on, so a batch with less padding runs full-size, as if it had none.
    Frame T - T // 4 is read first, as it is usually live when there is too
    little padding; then one pass marks the frames with a non-zero value in
    any sample (reducing over samples first, as numpy reduces short rows
    slowly)."""
    x = x.reshape(x.shape[:2] + (math.prod(x.shape[2:]),))  # -1 cannot size 0 frames
    t = x.shape[1]
    limit = t - t // 4  # frames limit.. must all be zero for any to be skipped
    if x[:, limit:limit + 1].any():
        return t
    live = np.flatnonzero((x != 0).any(axis=0).any(axis=1))
    end = int(live[-1]) + 1 if len(live) else 0
    return t if end > limit else end


def _demand_zero(live, frames):
    """A (B, n, ...) array extended to `frames` frames with +0, in an array
    of its own on fresh pages of a private anonymous mapping: the OS supplies
    a page only when it is first written, already zeroed, so the padding
    costs neither the writes nor the page faults. An array that already
    spans `frames` frames is returned as it is.

    np.zeros would not do: glibc serves blocks of a trace array's size from
    the heap, under the mmap threshold the CLI pins at 32 MiB
    (cli._pin_malloc_thresholds) as under its dynamic one after the first
    free. A reused heap block comes back dirty, so calloc clears all of it,
    padding included. The mapping is private, not MAP_SHARED (Python's default
    for an anonymous map), so a forked worker that writes into the array gets
    its own copy of the page. Where MAP_PRIVATE does not exist, and for an
    empty array, which no mapping can hold, a zeroed bytearray gives the same
    values."""
    if live.shape[1] == frames:
        return live
    shape = live.shape[:1] + (frames,) + live.shape[2:]
    nbytes = math.prod(shape) * live.itemsize
    private = nbytes and hasattr(mmap, "MAP_PRIVATE")
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE) if private else bytearray(nbytes)
    out = np.frombuffer(pages, live.dtype).reshape(shape)
    out[:, :live.shape[1]] = live
    return out


def _stage_frames(x, params: ModelParams):
    """The leading frames of a (B, T, n_mfcc) batch the input stage runs over:
    _live_frames(x) when conv_b is all zero (of either sign), else all T."""
    return x.shape[1] if params.conv_b.any() else _live_frames(x)


def _conv_relu(x, params: ModelParams, keep_pre: bool = True):
    """Convolution, + conv_b and ReLU of the first n = _stage_frames(x)
    frames of a (B, T, n_mfcc) batch, the only frames it computes. Returns
    n, the input windows (all T frames), conv_pre, (B, n, n_mfcc, filters),
    and the ReLU output flattened per frame, (B, n, flat_width). Without
    keep_pre the ReLU overwrites conv_pre, which is then not to be read."""
    b, t, m = x.shape
    k, filters = params.config.kernel_size, params.config.filters
    windows = _conv_windows(x, k)
    n = _stage_frames(x, params)
    conv_pre = (windows[:, :n].reshape(-1, k) @ params.conv_w[:, 0, :]).reshape(b, n, m, filters)
    conv_pre += params.conv_b
    relu = np.maximum(conv_pre, 0.0, out=None if keep_pre else conv_pre)
    # row-major flatten of each timestep: coefficient outer, filter inner
    return n, windows, conv_pre, relu.reshape(b, n, m * filters)


def _project(inputs, params: ModelParams):
    """The LSTM input projection + lstm_b of every frame of a (B, n,
    flat_width) input, as time-major (n, B, 4 * units) rows."""
    b, n, d = inputs.shape
    xw = (inputs.reshape(b * n, d) @ params.lstm_w.T).reshape(b, n, len(params.lstm_b))
    xw += params.lstm_b
    return xw.transpose(1, 0, 2)


def _recurrence(xw, fill, steps, params: ModelParams, keep: bool):
    """The LSTM step loop from h0 = c0 = 0 over `steps` steps: step s reads
    the input projections xw[s], (B, 4 * units), while s < len(xw), and the
    row fill after. Returns the final hidden state and, when keep, the
    ForwardTrace arrays (gates, cell, tanh_cell, h_prev) of every step, else
    None."""
    b = xw.shape[1]
    u = params.config.lstm_units
    dtype = params.lstm_w.dtype
    kept = steps if keep else 1  # without keep every step overwrites slot 0
    gates = np.empty((kept, 4, b, u), dtype=dtype)
    cell, tanh_cell, h_prev = (np.empty((kept, b, u), dtype=dtype) for _ in range(3))
    h = np.zeros((b, u), dtype=dtype)
    c = np.zeros((b, u), dtype=dtype)
    for step in range(steps):
        s = step % kept
        h_prev[s] = h
        z = h @ params.lstm_u.T
        z += xw[step] if step < len(xw) else fill
        # one sigmoid over all four gate blocks, then tanh over the cell block
        gates[s] = _sigmoid(z).reshape(b, 4, u).transpose(1, 0, 2)
        np.tanh(z[:, 2 * u : 3 * u], out=gates[s, 2])
        i, f, g, o = gates[s]
        c = np.add(f * c, i * g, out=cell[s])
        h = o * np.tanh(c, out=tanh_cell[s])
    trace = {"gates": gates, "cell": cell, "tanh_cell": tanh_cell, "h_prev": h_prev}
    return h, trace if keep else None


def _output(h, params: ModelParams):
    """The logistic output unit: (B,) probabilities and logits of the final
    hidden states."""
    logit = h @ params.dense_w
    logit += params.dense_b
    return _clamp_prob(_sigmoid(logit)), logit


def lstm_forward(inputs, params: ModelParams, steps=None):
    """Run the LSTM from h0 = c0 = 0 over `steps` timesteps, by default one
    per input frame, returning the final hidden state and the per-step
    quantities needed for backprop.

    The input projection is one GEMM over the (B, n, flat_width) inputs, and
    every step after the first n reads 0 + lstm_b, the row a full-size
    product gives a zero frame: model_forward passes the live frames
    _conv_relu ran over and all T steps."""
    x = _check_batch(inputs)
    n, d = x.shape[1:]
    if d != params.lstm_w.shape[1]:
        raise ParameterError(f"lstm input width {d} != weight width {params.lstm_w.shape[1]}")
    xw = _project(x, params)
    return _recurrence(xw, np.zeros((), xw.dtype) + params.lstm_b, n if steps is None else steps,
                       params, keep=True)


def model_forward(features, params: ModelParams):
    """Full forward pass over a (B, T, n_mfcc) batch; returns the (B,)
    probabilities and the ForwardTrace that model_backward reads."""
    x = _check_features(features, params)
    t = x.shape[1]
    live, windows, conv_pre, flat = _conv_relu(x, params)
    h_final, lstm_cache = lstm_forward(flat, params, t)
    prob, logit = _output(h_final, params)
    trace = ForwardTrace(x=x, live=live, windows=windows, conv_pre=_demand_zero(conv_pre, t),
                         flat=_demand_zero(flat, t), **lstm_cache, h_final=h_final,
                         logit=logit, prob=prob)
    return prob, trace


def model_score(features, params: ModelParams, batch_size: int):
    """The (B,) probabilities and logits of a (B, T, n_mfcc) array without a
    trace: what model_forward gives on each batch_size rows, to rounding.

    The input stage runs per batch_size rows, as in model_forward, so its
    memory stays bounded, and writes each batch's projections into one
    time-major array of the _stage_frames of all rows, the most any batch
    runs over; a batch's frames after its own hold 0 + lstm_b. One step loop
    runs over all rows, keeping only the current step. Its recurrent and
    output products run over all B rows at once, so their last bits may
    differ from a batch's own."""
    x = _check_features(features, params)
    b, t, _ = x.shape
    fill = np.zeros((), np.result_type(x, params.lstm_w)) + params.lstm_b
    xw = np.empty((_stage_frames(x, params), b, len(fill)), fill.dtype)
    for s in range(0, b, batch_size):
        rows = _project(_conv_relu(x[s:s + batch_size], params, keep_pre=False)[3], params)
        xw[:len(rows), s:s + batch_size] = rows
        xw[len(rows):, s:s + batch_size] = fill
        del rows  # freed before the next batch's input stage
    h, _ = _recurrence(xw, fill, t, params, keep=False)
    return _output(h, params)


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
    if b == 0:
        raise ParameterError("cannot take gradients over an empty batch (0 clips): "
                             "its mean loss is undefined")
    u = params.config.lstm_units
    y = np.atleast_1d(np.asarray(y, dtype=trace.prob.dtype))
    if y.shape != trace.prob.shape:
        raise ParameterError(f"labels shape {y.shape} != probabilities shape {trace.prob.shape}")

    dtype = trace.flat.dtype
    gates = trace.gates.transpose(0, 2, 1, 3)  # (T, B, 4, units)

    # output layer: dL/dlogit = (p - y) / B for the batch-mean loss
    dlogit = (trace.prob - y) / b
    dense_w = trace.h_final.T @ dlogit
    dense_b = dlogit.sum()
    dh = np.outer(dlogit, params.dense_w)

    # backprop through time. Per step, the gate pre-activation gradient of the
    # (B, 4, units) block is dz = (d_gate * act) * slope, where d_gate holds
    # dc * (g, c_prev, i) and dh * tanh(c), act the gate values with 1 in the
    # cell block, and slope the derivative factors 1 - gate (1 - g^2 in the
    # cell block): the per-gate products in their original order, as x * 1 == x.
    act = gates.copy()
    act[:, :, 2] = 1.0
    slope = 1.0 - gates
    slope[:, :, 2] = 1.0 - gates[:, :, 2] * gates[:, :, 2]
    dtanh_cell = 1.0 - trace.tanh_cell * trace.tanh_cell

    lstm_u = np.zeros_like(params.lstm_u)
    dz_all = np.empty((t, b, 4 * u), dtype=dtype)
    d_gate = np.empty((b, 4, u), dtype=dtype)
    d_i, d_f, d_g, d_o = d_gate.transpose(1, 0, 2)  # views of the four blocks
    dc = np.zeros((b, u), dtype=dtype)
    for step in range(t - 1, -1, -1):
        i, f, g, o = trace.gates[step]
        c_prev = trace.cell[step - 1] if step > 0 else np.zeros_like(dc)
        dc = dc + dh * o * dtanh_cell[step]
        np.multiply(dc, g, out=d_i)
        np.multiply(dc, c_prev, out=d_f)
        np.multiply(dc, i, out=d_g)
        np.multiply(dh, trace.tanh_cell[step], out=d_o)
        dz = dz_all[step]
        dz_blocks = dz.reshape(b, 4, u)
        np.multiply(d_gate, act[step], out=dz_blocks)
        dz_blocks *= slope[step]

        lstm_u += dz.T @ trace.h_prev[step]
        dh = dz @ params.lstm_u
        dc = dc * f
    del act, slope, dtanh_cell  # freed before the products below, to keep peak memory
    dz_flat = dz_all.transpose(1, 0, 2).reshape(b * t, 4 * u)
    lstm_b = dz_flat.sum(axis=0)

    # flatten -> ReLU mask -> convolution, over the frames the forward pass
    # ran over (see _conv_relu): flat and windows are zero after them, so the
    # lstm_w and conv_w gradients sum their live rows only, and dflat reaches
    # dpre only through an active ReLU unit, so dpre is zero after them too
    k, _, filters = params.conv_w.shape
    n = trace.live
    dz_live = dz_flat.reshape(b, t, 4 * u)[:, :n].reshape(b * n, 4 * u)
    lstm_w = dz_live.T @ trace.flat[:, :n].reshape(b * n, m * filters)
    dflat = dz_live @ params.lstm_w
    dpre = np.multiply(dflat.reshape(b, n, m, filters), trace.conv_pre[:, :n] > 0.0)
    conv_w = trace.windows[:, :n].reshape(b * n * m, k).T @ dpre.reshape(b * n * m, filters)
    conv_b = dpre.sum(axis=(0, 1, 2))
    grads = {
        "conv_w": conv_w.reshape(k, 1, filters),
        "conv_b": conv_b,
        "lstm_w": lstm_w,
        "lstm_u": lstm_u,
        "lstm_b": lstm_b,
        "dense_w": dense_w,
        "dense_b": dense_b,
    }
    return ModelParams(params.config, **{
        name: np.asarray(g, dtype=getattr(params, name).dtype) for name, g in grads.items()
    })


# --- Serialization ------------------------------------------------------------
#
# One sorted-key JSON document per model: format_version, gate_order,
# model_config, dtype, tensors, plus the caller's extra metadata as further
# top-level keys. Each tensor is {"shape": [...], "data": base64 of its C-order
# little-endian bytes in the model dtype}, so a load gives back the saved bits.

MODEL_DTYPES = ("float32", "float64")
_FORMAT_KEYS = ("format_version", "gate_order", "model_config", "dtype", "tensors")


def save_model(params: ModelParams, path, extra: dict | None = None) -> None:
    """Write a model file; `extra` adds top-level metadata keys."""
    dtype = params.conv_w.dtype
    wire = dtype.newbyteorder("<")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "gate_order": list(GATE_ORDER),
        "model_config": asdict(params.config),
        "dtype": str(dtype),
        "tensors": {
            name: {"shape": list(t.shape),
                   "data": base64.b64encode(np.asarray(t, dtype=wire).tobytes()).decode("ascii")}
            for name, t in params.tensors().items()
        },
    }
    doc.update(extra or {})
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> tuple[ModelParams, dict]:
    """Read a save_model file: the saved tensors, bit for bit, and the extra
    metadata. Raises FormatError naming the file when it is not a readable
    model of this format with the tensor shapes its model_config implies."""
    try:
        return _parse_model(json.loads(Path(path).read_bytes()))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # bad JSON or base64, a missing key, or a value of the wrong type
        raise FormatError(f"{path}: not a readable model file ({type(exc).__name__}: {exc}); "
                          "re-run `convser train`") from None


def _parse_model(doc) -> tuple[ModelParams, dict]:
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise FormatError(f"model format_version {version!r} is not {MODEL_FORMAT_VERSION}; "
                          "re-run `convser train` to write a current model file")
    if doc["gate_order"] != list(GATE_ORDER):
        raise FormatError(f"gate order {doc['gate_order']!r} is not {list(GATE_ORDER)}")
    fields = doc["model_config"]
    if not all(type(v) is int for v in fields.values()):
        raise FormatError(f"model_config {fields!r} holds a non-integer value")
    try:
        config = ModelConfig(**fields)
    except ParameterError as exc:
        raise FormatError(f"bad model_config: {exc}") from None
    if doc["dtype"] not in MODEL_DTYPES:
        raise FormatError(f"dtype {doc['dtype']!r} not in {MODEL_DTYPES}")
    dtype = np.dtype(doc["dtype"])
    tensors = {}
    for name, shape in config.tensor_shapes.items():
        entry = doc["tensors"][name]
        if entry["shape"] != list(shape):
            raise FormatError(f"{name} has shape {entry['shape']}, model_config implies {list(shape)}")
        raw = base64.b64decode(entry["data"], validate=True)
        size = int(np.prod(shape)) * dtype.itemsize
        if len(raw) != size:
            raise FormatError(f"{name} holds {len(raw)} bytes, {list(shape)} {dtype} needs {size}")
        tensors[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
    extra = {key: value for key, value in doc.items() if key not in _FORMAT_KEYS}
    return ModelParams(config=config, **tensors), extra
