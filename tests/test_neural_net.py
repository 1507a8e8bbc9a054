import base64
import json
import math
import multiprocessing
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from convser.exceptions import FormatError, ParameterError
from convser.neural_net import (
    GATE_ORDER,
    ModelConfig,
    ModelParams,
    bce_from_logit,
    init_params,
    load_model,
    lstm_forward,
    model_backward,
    model_forward,
    model_score,
    save_model,
)
from convser.neural_net import _live_frames, _sigmoid
from convser.train_eval import _blas_threads, _one_blas_thread, _openblas_setter, evaluate

TINY = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5, max_frames=6)


def random_params(config, seed, scale=0.5):
    """Fully randomized parameters (biases included) for gradient checks."""
    rng = np.random.default_rng(seed)
    params = init_params(config, seed, np.float64)
    for name in params.TENSOR_NAMES:
        t = getattr(params, name)
        t[...] = rng.uniform(-scale, scale, size=t.shape)
    return params


def scalar_reference_forward(x, params):
    """Independent plain-Python forward pass (loops and math.*, no numpy ops
    beyond indexing) used as the oracle for the vectorized implementation."""
    cfg = params.config
    t_len, n_in = x.shape
    k = cfg.kernel_size
    pad_left = (k - 1) // 2

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

    flat_rows = []
    for t in range(t_len):
        row = []
        for f in range(cfg.filters):
            conv = []
            for i in range(n_in):
                acc = float(params.conv_b[f])
                for kk in range(k):
                    j = i - pad_left + kk
                    if 0 <= j < n_in:
                        acc += float(params.conv_w[kk, 0, f]) * float(x[t, j])
                conv.append(max(acc, 0.0))
            row.append(conv)
        # row-major flatten: coefficient index outer, filter index inner
        flat_rows.append([row[f][i] for i in range(n_in) for f in range(cfg.filters)])

    u = cfg.lstm_units
    h = [0.0] * u
    c = [0.0] * u
    for t in range(t_len):
        z = []
        for r in range(4 * u):
            acc = float(params.lstm_b[r])
            for j, value in enumerate(flat_rows[t]):
                acc += float(params.lstm_w[r, j]) * value
            for j in range(u):
                acc += float(params.lstm_u[r, j]) * h[j]
            z.append(acc)
        for j in range(u):
            gate_i = sigmoid(z[j])
            gate_f = sigmoid(z[u + j])
            gate_g = math.tanh(z[2 * u + j])
            gate_o = sigmoid(z[3 * u + j])
            c[j] = gate_f * c[j] + gate_i * gate_g
            h[j] = gate_o * math.tanh(c[j])

    logit = float(params.dense_b)
    for j in range(u):
        logit += float(params.dense_w[j]) * h[j]
    return sigmoid(logit)


def conv_relu(x, params):
    """The ReLU convolution output of model_forward for one (T, n_mfcc) sample,
    read back from its trace as (T, n_mfcc, filters)."""
    _, trace = model_forward(x[None], params)
    return np.maximum(trace.conv_pre, 0.0)[0]


# --- Per-gate reference ------------------------------------------------------
#
# The forward and backward passes as first written: a sigmoid per gate, each
# gate's backward product written separately, and tensordot for the
# convolution. model_forward and model_backward stack the gates and must give
# the same bits.


def reference_sigmoid(x):
    x = np.asarray(x)
    shape = x.shape
    x = np.atleast_1d(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(shape)


def reference_forward(x, params):
    """Every ForwardTrace array, by name."""
    cfg = params.config
    b, t, m = x.shape
    k, u = cfg.kernel_size, cfg.lstm_units
    pad_left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad_left, k - 1 - pad_left)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    conv_pre = np.tensordot(windows, params.conv_w[:, 0, :], axes=([3], [0])) + params.conv_b
    flat = np.maximum(conv_pre, 0.0).reshape(b, t, m * cfg.filters)

    dtype = params.lstm_w.dtype
    xw = (flat.reshape(b * t, -1) @ params.lstm_w.T).reshape(b, t, 4 * u) + params.lstm_b
    gates = np.empty((t, 4, b, u), dtype=dtype)
    cell = np.empty((t, b, u), dtype=dtype)
    tanh_cell = np.empty((t, b, u), dtype=dtype)
    h_prev = np.empty((t, b, u), dtype=dtype)
    h = np.zeros((b, u), dtype=dtype)
    c = np.zeros((b, u), dtype=dtype)
    for step in range(t):
        h_prev[step] = h
        z = xw[:, step, :] + h @ params.lstm_u.T
        i = reference_sigmoid(z[:, 0 * u : 1 * u])
        f = reference_sigmoid(z[:, 1 * u : 2 * u])
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = reference_sigmoid(z[:, 3 * u : 4 * u])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[step, 0], gates[step, 1], gates[step, 2], gates[step, 3] = i, f, g, o
        cell[step] = c
        tanh_cell[step] = tc

    logit = h @ params.dense_w + params.dense_b
    p = reference_sigmoid(logit)
    prob = np.clip(p, np.finfo(p.dtype).tiny, np.nextafter(p.dtype.type(1), p.dtype.type(0)))
    return dict(x=x, windows=windows, conv_pre=conv_pre, flat=flat, gates=gates, cell=cell,
                tanh_cell=tanh_cell, h_prev=h_prev, h_final=h, logit=logit, prob=prob)


def reference_backward(trace, y, params):
    """Every gradient tensor, by name."""
    b, t, m = trace["x"].shape
    u = params.config.lstm_units
    y = np.asarray(y, dtype=trace["prob"].dtype)
    grads = {name: np.zeros_like(getattr(params, name)) for name in params.TENSOR_NAMES}

    dlogit = (trace["prob"] - y) / b
    grads["dense_w"][...] = trace["h_final"].T @ dlogit
    grads["dense_b"][...] = dlogit.sum()
    dh = np.outer(dlogit, params.dense_w)

    dz_all = np.empty((t, b, 4 * u), dtype=trace["flat"].dtype)
    dc = np.zeros((b, u), dtype=trace["flat"].dtype)
    for step in range(t - 1, -1, -1):
        i, f, g, o = trace["gates"][step]
        tc = trace["tanh_cell"][step]
        c_prev = trace["cell"][step - 1] if step > 0 else np.zeros_like(dc)

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

        grads["lstm_u"] += dz.T @ trace["h_prev"][step]
        dh = dz @ params.lstm_u
        dc = dc * f

    dz_flat = dz_all.transpose(1, 0, 2).reshape(b * t, 4 * u)
    grads["lstm_w"][...] = dz_flat.T @ trace["flat"].reshape(b * t, -1)
    grads["lstm_b"][...] = dz_flat.sum(axis=0)
    dflat = (dz_flat @ params.lstm_w).reshape(b, t, -1)
    dpre = dflat.reshape(b, t, m, params.config.filters) * (trace["conv_pre"] > 0.0)
    grads["conv_w"][:, 0, :] = np.tensordot(trace["windows"], dpre, axes=([0, 1, 2], [0, 1, 2]))
    grads["conv_b"][...] = dpre.sum(axis=(0, 1, 2))
    return grads


M1_13 = ModelConfig(filters=16, kernel_size=5, lstm_units=20, n_mfcc=13, max_frames=20)
M8_40 = ModelConfig(filters=32, kernel_size=20, lstm_units=40, n_mfcc=40, max_frames=20)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def close(got, want):
    """Equal to rounding: a product over fewer or more rows than the
    reference's may round its last bits otherwise, as a BLAS blocks its sums
    and picks its kernels by a product's size. The error is measured against
    the array's largest magnitude, the scale a sum's rounding error follows."""
    got, want = np.asarray(got), np.asarray(want)
    rtol = 1e-4 if want.dtype == np.float32 else 1e-10
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.allclose(got, want, rtol=0, atol=rtol * np.abs(want).max(initial=0)))


def reference_mismatches(x, y, params, same=None):
    """Names of the trace arrays and gradients that differ from the
    reference: by default in their bits when the batch ran full-size, making
    the reference's BLAS calls, and beyond rounding when it skipped padding."""
    _, trace = model_forward(x, params)
    if same is None:
        same = same_bits if trace.live == x.shape[1] else close
    expected = reference_forward(x, params)
    bad = [name for name, want in expected.items() if not same(getattr(trace, name), want)]
    grads = model_backward(trace, y, params)
    bad += [f"d{name}" for name, want in reference_backward(expected, y, params).items()
            if not same(getattr(grads, name), want)]
    return bad


def padded_batch(config, batch, longest, dtype, seed):
    """A batch zero-padded at the tail: the last sample has `longest` valid
    frames, the first (when there are two or more) none, the others 1..longest."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (batch, config.max_frames, config.n_mfcc)).astype(dtype)
    lengths = rng.integers(1, longest + 1, batch)
    lengths[0], lengths[-1] = 0, longest
    for row, length in zip(x, lengths):
        row[length:] = 0.0
    return x


def conv_bias(params, kind):
    """params with conv_b as initialised (zero), with entries of both signs
    (mixed), or with every entry <= 0: negative ones and one -0.0
    (nonpositive). Any non-zero entry makes the input stage run all T frames."""
    size = params.conv_b.size
    params.conv_b[...] = {"zero": np.zeros(size), "mixed": np.linspace(-0.3, 0.3, size),
                          "nonpositive": -np.linspace(0.3, 0.0, size)}[kind]
    return params


def dead_relu_batch(config, rows, live, dtype, seed):
    """rows samples whose first 3 frames are random, frames 3..live positive
    and later frames zero, with params from negative_conv: x has `live` live
    frames, its ReLU output 3."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, config.max_frames, config.n_mfcc), dtype)
    x[:, :3] = rng.uniform(-1, 1, (rows, 3, config.n_mfcc))
    x[:, 3:live] = rng.uniform(0.1, 1, (rows, live - 3, config.n_mfcc))
    return x


def negative_conv(params):
    """params with every conv_w entry negative and conv_b zero, so that a
    positive frame has a ReLU row of zero."""
    params.conv_w[...] = -0.01 - np.abs(params.conv_w)
    params.conv_b[...] = 0.0
    return params


class TestMatchesPerGateReference:
    @pytest.mark.parametrize("config", [M1_13, M8_40], ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trace_and_gradients_bit_identical(self, config, batch, dtype):
        params = random_params(config, 7).astype(dtype)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (batch, config.max_frames, config.n_mfcc)).astype(dtype)
        y = (np.arange(batch) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    # The padded batches skip the product rows of their trailing zero frames,
    # and match the full-size reference to rounding, but for longest = 20 and
    # 16, whose padding is under a quarter of the 20 frames, and a non-zero
    # conv_b (mixed, nonpositive), which runs all T frames and gives the
    # reference's bits
    @pytest.mark.parametrize("config", [M1_13, M8_40], ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["zero", "mixed", "nonpositive"])
    @pytest.mark.parametrize("batch,longest", [(16, 20), (16, 16), (16, 13), (16, 4), (16, 1),
                                               (4, 6), (1, 6)])
    def test_tail_padded_batch_close(self, config, dtype, bias, batch, longest):
        params = conv_bias(random_params(config, 7), bias).astype(dtype)
        x = padded_batch(config, batch, longest, dtype, seed=longest if batch == 16 else batch)
        y = (np.arange(batch) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    @pytest.mark.parametrize("config", [M1_13, M8_40], ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["zero", "mixed", "nonpositive"])
    def test_all_zero_batch_bit_identical(self, config, dtype, bias):
        params = conv_bias(random_params(config, 7), bias).astype(dtype)
        x = np.zeros((16, config.max_frames, config.n_mfcc), dtype)
        y = (np.arange(16) % 2).astype(dtype)
        assert reference_mismatches(x, y, params, same=same_bits) == []

    @pytest.mark.parametrize("config", [M1_13, M8_40], ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["zero", "mixed"])
    def test_interior_zero_frames_close(self, config, dtype, bias):
        # zero frames 3..9 in every sample, then live frames 10..14, then padding:
        # only the trailing frames may be skipped
        params = conv_bias(random_params(config, 7), bias).astype(dtype)
        x = padded_batch(config, 16, 15, dtype, seed=3)
        x[:, 3:10] = 0.0
        x[2, 14] = 0.5
        y = (np.arange(16) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    # T = 60 with 1..8 live frames per sample, as in the benchmark's batches:
    # model_backward reads the ReLU mask of the input's live frames only
    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["zero", "mixed", "nonpositive"])
    @pytest.mark.parametrize("batch", [16, 5])
    @pytest.mark.parametrize("longest", [8, 1])
    def test_benchmark_shape_close(self, config, dtype, bias, batch, longest):
        params = conv_bias(random_params(config, 7, scale=0.2), bias).astype(dtype)
        x = padded_batch(config, batch, longest, dtype, seed=batch + longest)
        y = (np.arange(batch) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    # x has more live frames than its ReLU output: every product runs over
    # the live frames of x, the ReLU rows of zero after the third included
    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("live", [8, 20])
    def test_zero_relu_frames_close(self, config, dtype, live):
        params = negative_conv(random_params(config, 7, scale=0.2)).astype(dtype)
        x = dead_relu_batch(config, 16, live, dtype, seed=live)
        _, trace = model_forward(x, params)
        assert trace.live == live
        assert trace.flat[:, 2].any() and not trace.flat[:, 3:].any()
        y = (np.arange(16) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_reference(self, dtype):
        # dense around the thresholds where exp(-|x|) turns subnormal and then
        # zero (about 88 and 104 in float32, 708 and 745 in float64)
        info = np.finfo(dtype)
        edges = (88.0, 104.0) if dtype == np.float32 else (708.0, 745.0)
        dense = [np.linspace(edge - 2, edge + 2, 40001, dtype=dtype) for edge in edges]
        tiny = np.array([info.tiny, info.smallest_subnormal, info.tiny / 3], dtype)
        x = np.concatenate(dense + [np.linspace(-30, 30, 60001, dtype=dtype), tiny,
                                    np.array([0.0, np.inf, info.max], dtype)])
        x = np.concatenate([x, -x, np.array([np.nan], dtype)])
        with np.errstate(all="ignore"):
            got, want = _sigmoid(x), reference_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # NaN stays NaN; its sign bit is not part of the contract
        assert same_bits(got[~nan], want[~nan])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_edge_values(self, dtype):
        x = np.array([0.0, -0.0, 88.0, -88.0, 1e4, -1e4, np.nan], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid(x)
            want = reference_sigmoid(x)
        assert got.dtype == want.dtype
        # NaN stays NaN; its sign bit is not part of the contract
        assert np.array_equal(got, want, equal_nan=True)
        assert got[0] == got[1] == 0.5 and got[4] == 1.0 and got[5] == 0.0


class TestLiveFrames:
    def test_trailing_zero_frames_are_skipped(self):
        x = np.ones((3, 20, 4))
        x[:, 9:] = 0.0
        x[1, 9:12] = -0.5  # one sample is longer
        assert _live_frames(x) == 12

    def test_interior_zero_frames_are_kept(self):
        x = np.ones((2, 20, 4))
        x[:, 2:8] = 0.0
        x[:, 10:] = 0.0
        assert _live_frames(x) == 10

    def test_few_live_rows_still_skip(self):
        x = np.zeros((3, 20, 4))
        x[:, :5] = 1.0
        assert _live_frames(x) == 5
        assert _live_frames(x[:1, :, :1]) == 5

    def test_padding_under_a_quarter_runs_full_size(self):
        x = np.ones((2, 20, 4))
        x[:, 16:] = 0.0
        assert _live_frames(x) == 20
        x[:, 15:] = 0.0
        assert _live_frames(x) == 15

    def test_all_zero_and_unpadded_batches(self):
        assert _live_frames(np.zeros((2, 20, 4))) == 0
        assert _live_frames(np.ones((2, 20, 4))) == 20

    def test_reads_any_trailing_axes(self):
        mask = np.zeros((4, 8, 3, 2), dtype=bool)
        mask[0, 4, 1, 1] = True
        assert _live_frames(mask) == 5


class TestStageFrames:
    """The input stage skips a batch's trailing zero frames only when conv_b
    is all zero, of either sign; any non-zero entry runs all T frames."""

    CONFIG = replace(M8_40, max_frames=60)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_conv_b_skips_the_padding(self, zero, dtype):
        params = random_params(self.CONFIG, 7, scale=0.2)
        params.conv_b[...] = zero
        params = params.astype(dtype)
        x = padded_batch(self.CONFIG, 16, 8, dtype, seed=8)
        _, trace = model_forward(x, params)
        assert trace.live == 8
        # the trace's padding is +0, the ReLU of the +0 a zero frame gives
        for padding in (trace.conv_pre[:, 8:], trace.flat[:, 8:]):
            assert same_bits(padding, np.zeros_like(padding))
        y = (np.arange(16) % 2).astype(dtype)
        assert reference_mismatches(x, y, params) == []

    @pytest.mark.parametrize("entry", [-0.25, -1e-30, 0.25])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_non_zero_conv_b_runs_all_frames(self, entry, dtype):
        params = random_params(self.CONFIG, 7, scale=0.2)
        params.conv_b[...] = 0.0
        params.conv_b[3] = entry
        params = params.astype(dtype)
        x = padded_batch(self.CONFIG, 16, 8, dtype, seed=8)
        _, trace = model_forward(x, params)
        assert trace.live == 60
        y = (np.arange(16) % 2).astype(dtype)
        # full size, so reference_mismatches compares bits
        assert reference_mismatches(x, y, params) == []

    def test_nan_conv_b_runs_all_frames(self):
        params = random_params(self.CONFIG, 7, scale=0.2).astype(np.float32)
        params.conv_b[...] = 0.0
        params.conv_b[0] = np.nan
        x = padded_batch(self.CONFIG, 4, 8, np.float32, seed=8)
        with np.errstate(invalid="ignore"):
            _, trace = model_forward(x, params)
        assert trace.live == 60

    # a product of 16 x n rows takes the kernels of the 16 x T one: small
    # products (a few rows) may take others and round differently
    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("live", [15, 45, 60])
    def test_lstm_over_live_inputs_equals_zero_padded(self, config, dtype, live):
        params = random_params(config, 5, scale=0.2).astype(dtype)
        rng = np.random.default_rng(live)
        inputs = np.maximum(rng.uniform(-1, 1, (16, live, config.flat_width)), 0.0).astype(dtype)
        padded = np.zeros((16, 60, config.flat_width), dtype)
        padded[:, :live] = inputs
        with _one_blas_thread():
            h, cache = lstm_forward(inputs, params, 60)
            want_h, want_cache = lstm_forward(padded, params)
        assert same_bits(h, want_h)
        assert [name for name in want_cache if not same_bits(cache[name], want_cache[name])] == []


class TestTracePages:
    """A padded batch's conv_pre and ReLU output lie on anonymous pages of
    their own; each trace must own them, in this process and in a fork."""

    def padded_trace(self, seed):
        config = replace(M8_40, max_frames=60)
        x = padded_batch(config, 16, 5, np.float32, seed)
        _, trace = model_forward(x, init_params(config, 0, np.float32))
        assert trace.live < config.max_frames
        return trace

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_a_forked_child_writes_to_its_own_copy(self):
        trace = self.padded_trace(seed=1)
        before = trace.conv_pre.tobytes(), trace.flat.tobytes()

        def overwrite():
            trace.conv_pre[...] = 7.0
            trace.flat[...] = 7.0

        # the context map_tasks starts its workers in
        child = multiprocessing.get_context("fork").Process(target=overwrite)
        child.start()
        child.join()
        assert child.exitcode == 0
        assert (trace.conv_pre.tobytes(), trace.flat.tobytes()) == before

    def test_consecutive_traces_share_no_memory(self):
        first, second = self.padded_trace(seed=1), self.padded_trace(seed=2)
        for a in (first.conv_pre, first.flat):
            for b in (second.conv_pre, second.flat):
                assert not np.shares_memory(a, b)


class TestConv:
    def test_identity_kernel_passes_nonnegative_input(self):
        config = ModelConfig(filters=1, kernel_size=3, lstm_units=2, n_mfcc=4, max_frames=2)
        params = init_params(config, 0)
        params.conv_w[...] = 0.0
        params.conv_w[1, 0, 0] = 1.0  # centered unit impulse
        params.conv_b[...] = 0.0
        x = np.abs(np.random.default_rng(0).standard_normal((2, 4)))
        out = conv_relu(x, params)
        assert out.shape == (2, 4, 1)
        assert np.allclose(out[:, :, 0], x)

    def test_all_zero_params(self):
        params = init_params(TINY, 0)
        for name in ("conv_w", "conv_b"):
            getattr(params, name)[...] = 0.0
        _, trace = model_forward(np.ones((1, 6, 5)), params)
        assert np.all(trace.conv_pre == 0.0)
        assert np.all(trace.flat == 0.0)

    @pytest.mark.parametrize("kernel", [3, 4, 5, 20])
    def test_same_padding_width(self, kernel):
        config = ModelConfig(filters=2, kernel_size=kernel, lstm_units=2, n_mfcc=13, max_frames=3)
        out = conv_relu(np.ones((3, 13)), init_params(config, 1))
        assert out.shape == (3, 13, 2)

    def test_matches_naive_sliding_window(self):
        config = ModelConfig(filters=2, kernel_size=3, lstm_units=2, n_mfcc=5, max_frames=4)
        params = random_params(config, 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5))
        out = conv_relu(x, params)
        pad = (3 - 1) // 2
        for t in range(4):
            for i in range(5):
                for f in range(2):
                    acc = params.conv_b[f]
                    for kk in range(3):
                        j = i - pad + kk
                        if 0 <= j < 5:
                            acc += params.conv_w[kk, 0, f] * x[t, j]
                    assert out[t, i, f] == pytest.approx(max(acc, 0.0), abs=1e-12)


class TestFlatten:
    """trace.flat is the ReLU convolution output, flattened row-major per
    timestep: coefficient index outer, filter index inner."""

    def test_layout(self):
        config = ModelConfig(filters=2, kernel_size=1, lstm_units=2, n_mfcc=2, max_frames=1)
        params = init_params(config, 0)
        params.conv_w[0, 0, :] = [1.0, 10.0]  # filter f scales every coefficient
        params.conv_b[...] = 0.0
        _, trace = model_forward(np.array([[[1.0, 2.0]]]), params)
        assert np.array_equal(trace.flat, [[[1.0, 10.0, 2.0, 20.0]]])

    def test_inverse_recovers_tensor(self):
        params = random_params(TINY, 1)
        x = np.random.default_rng(1).uniform(-1, 1, (3, 6, 5))
        _, trace = model_forward(x, params)
        assert np.array_equal(trace.flat.reshape(3, 6, 5, 2), np.maximum(trace.conv_pre, 0.0))

    def test_element_count_preserved(self):
        rng = np.random.default_rng(2)
        for b, t, m, filters in ((2, 3, 4, 2), (1, 7, 2, 3), (5, 1, 6, 1)):
            config = ModelConfig(filters=filters, kernel_size=3, lstm_units=2, n_mfcc=m,
                                 max_frames=t)
            _, trace = model_forward(rng.standard_normal((b, t, m)), init_params(config, 0))
            assert trace.flat.shape == (b, t, m * filters)
            assert trace.flat.size == trace.conv_pre.size


class TestLstm:
    def test_zero_params_fixed_point(self):
        params = init_params(TINY, 0)
        for name in ("lstm_w", "lstm_u", "lstm_b"):
            getattr(params, name)[...] = 0.0
        h, _ = lstm_forward(np.ones((1, 6, 10)), params)
        assert np.all(h == 0.0)

    def test_padded_zero_frames_leave_state_at_zero(self):
        params = init_params(TINY, 0)
        for name in ("lstm_w", "lstm_u", "lstm_b"):
            getattr(params, name)[...] = 0.0
        h, cache = lstm_forward(np.zeros((1, 4, 10)), params)
        assert np.all(h == 0.0)
        assert np.all(cache["cell"] == 0.0)

    def test_matches_scalar_recurrence(self):
        config = ModelConfig(filters=1, kernel_size=3, lstm_units=2, n_mfcc=2, max_frames=3)
        params = random_params(config, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 2))
        (h,), _ = lstm_forward(x[None], params)

        u = 2
        h_ref = [0.0, 0.0]
        c_ref = [0.0, 0.0]
        for t in range(3):
            z = []
            for r in range(4 * u):
                acc = params.lstm_b[r]
                acc += sum(params.lstm_w[r, j] * x[t, j] for j in range(2))
                acc += sum(params.lstm_u[r, j] * h_ref[j] for j in range(u))
                z.append(acc)
            for j in range(u):
                i_g = 1.0 / (1.0 + math.exp(-z[j]))
                f_g = 1.0 / (1.0 + math.exp(-z[u + j]))
                g_g = math.tanh(z[2 * u + j])
                o_g = 1.0 / (1.0 + math.exp(-z[3 * u + j]))
                c_ref[j] = f_g * c_ref[j] + i_g * g_g
                h_ref[j] = o_g * math.tanh(c_ref[j])
        assert np.allclose(h, h_ref, atol=1e-12)


class TestDense:
    """The logistic output unit, read from model_forward's trace."""

    def test_zero_params_give_half(self):
        params = init_params(TINY, 0)
        params.dense_w[...] = 0.0
        params.dense_b[...] = 0.0
        prob, _ = model_forward(np.ones((2, 6, 5)), params)
        assert np.all(prob == 0.5)

    def test_saturated_logit_stays_inside_open_interval(self):
        params = init_params(TINY, 0)
        params.dense_w[...] = 0.0
        x = np.zeros((1, 6, 5))
        for logit in (40.0, 500.0):
            params.dense_b[...] = logit
            (p,), _ = model_forward(x, params)
            assert p < 1.0
            assert 1.0 - p <= 2.0 ** -52
        params.dense_b[...] = -500.0
        (p,), _ = model_forward(x, params)
        assert p > 0.0

    def test_matches_direct_formula(self):
        params = random_params(TINY, 7)
        x = np.random.default_rng(8).uniform(-1, 1, (3, 6, 5))
        prob, trace = model_forward(x, params)
        logit = trace.h_final @ params.dense_w + params.dense_b
        assert np.array_equal(trace.logit, logit)
        assert np.allclose(prob, 1.0 / (1.0 + np.exp(-logit)), atol=1e-12)
        assert np.array_equal(trace.prob, prob)


class TestModelForward:
    def test_zero_params_give_half(self):
        params = init_params(TINY, 0)
        for name in params.TENSOR_NAMES:
            getattr(params, name)[...] = 0.0
        x = np.random.default_rng(0).uniform(-1, 1, (1, 6, 5))
        p, _ = model_forward(x, params)
        assert p == pytest.approx(0.5)

    def test_padded_frames_interchangeable(self):
        params = random_params(TINY, 9)
        x = np.zeros((1, 6, 5))
        x[0, :3] = np.random.default_rng(10).uniform(-1, 1, (3, 5))
        p1, _ = model_forward(x, params)
        p2, _ = model_forward(x.copy(), params)  # trailing zero rows permuted = identical
        assert np.array_equal(p1, p2)

    def test_matches_independent_scalar_implementation(self):
        for seed in range(3):
            params = random_params(TINY, 20 + seed)
            x = np.random.default_rng(30 + seed).uniform(-1, 1, (6, 5))
            (p,), _ = model_forward(x[None], params)
            assert p == pytest.approx(scalar_reference_forward(x, params), abs=1e-12)

    def test_batched_matches_per_sample(self):
        params = random_params(TINY, 11)
        batch = np.random.default_rng(12).uniform(-1, 1, (4, 6, 5))
        probs, _ = model_forward(batch, params)
        assert probs.shape == (4,)
        singles = [model_forward(batch[i : i + 1], params)[0][0] for i in range(4)]
        assert np.allclose(probs, singles, atol=1e-12)

    def test_forward_deterministic(self):
        params = random_params(TINY, 13)
        x = np.random.default_rng(14).uniform(-1, 1, (2, 6, 5))
        assert np.array_equal(model_forward(x, params)[0], model_forward(x, params)[0])

    def test_width_mismatch(self):
        with pytest.raises(ParameterError):
            model_forward(np.zeros((1, 6, 7)), init_params(TINY, 0))

    @pytest.mark.parametrize("shape", [(6, 5), (5,), (1, 1, 6, 5)])
    def test_unbatched_input_rejected(self, shape):
        params = init_params(TINY, 0)
        with pytest.raises(ParameterError, match="batch"):
            model_forward(np.zeros(shape), params)
        with pytest.raises(ParameterError, match="batch"):
            lstm_forward(np.zeros(shape[:-1] + (10,)), params)


def batchwise_forward(x, params, batch_size=16):
    """model_forward's probabilities and logits over x, batch_size rows at a time."""
    probs, logits = zip(*((prob, trace.logit) for prob, trace in
                          (model_forward(x[s:s + batch_size], params)
                           for s in range(0, len(x), batch_size))))
    return np.concatenate(probs), np.concatenate(logits)


def scoring_input(config, rows, kind, dtype, seed):
    """rows samples of T = 60 frames, its 16-row batches padded in turn:
    1..8 live frames at the tail, exactly a quarter of the frames padded
    (the _live_frames boundary), and no padding, starting at kind."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (rows, 60, config.n_mfcc)).astype(dtype)
    for j, start in enumerate(range(0, rows, 16)):
        batch = x[start:start + 16]
        padding = ("tail", "quarter", "none")[(kind + j) % 3]
        if padding == "tail":
            for row, live in zip(batch, rng.integers(1, 9, len(batch))):
                row[live:] = 0.0
        elif padding == "quarter":
            batch[:, 45:] = 0.0
    return x


class TestModelScore:
    """model_score keeps no trace, yet gives to rounding what model_forward
    gives on each batch; evaluate's loss, accuracy and predictions are those
    of model_score's own outputs, exactly."""

    ROWS = (1, 5, 13, 16, 29, 67, 91, 213)

    @staticmethod
    def assert_evaluate_reads(params, x, y, batch_size, rows):
        prob, logit = model_score(x, params, batch_size)
        loss, accuracy, preds = evaluate(params, x, y, batch_size)
        want = (prob >= 0.5).astype(int)
        assert same_bits(preds, want), rows
        assert loss == float(bce_from_logit(logit, y).mean()), rows
        assert accuracy == float((want == y).mean()), rows

    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["zero", "mixed"])
    def test_close_to_batchwise_forward(self, config, dtype, bias):
        params = conv_bias(random_params(config, 7, scale=0.2), bias).astype(dtype)
        for kind, rows in enumerate(self.ROWS):
            x = scoring_input(config, rows, kind, dtype, seed=rows)
            y = (np.arange(rows) % 3 == 0).astype(dtype)
            prob, logit = batchwise_forward(x, params)
            got_prob, got_logit = model_score(x, params, 16)
            assert close(got_prob, prob), rows
            assert close(got_logit, logit), rows
            self.assert_evaluate_reads(params, x, y, 16, rows)

    # one call over every row, remainder included, at any batch size
    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [2, 4, 16, 32])
    def test_one_call_over_all_rows(self, config, dtype, batch_size):
        params = conv_bias(random_params(config, 5, scale=0.2), "zero").astype(dtype)
        for kind, rows in enumerate(self.ROWS):
            x = scoring_input(config, rows, kind, dtype, seed=rows + 1)
            y = (np.arange(rows) % 2).astype(dtype)
            prob, logit = batchwise_forward(x, params, batch_size)
            got_prob, got_logit = model_score(x, params, batch_size)
            assert close(got_prob, prob), rows
            assert close(got_logit, logit), rows
            self.assert_evaluate_reads(params, x, y, batch_size, rows)

    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("live", [8, 20])
    def test_zero_relu_frames(self, config, dtype, live):
        # x has more live frames than its ReLU output (see dead_relu_batch)
        params = negative_conv(random_params(config, 7, scale=0.2)).astype(dtype)
        for rows in (16, 37):
            x = dead_relu_batch(config, rows, live, dtype, seed=rows + live)
            prob, logit = batchwise_forward(x, params)
            got_prob, got_logit = model_score(x, params, 16)
            assert close(got_prob, prob), rows
            assert close(got_logit, logit), rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows(self, dtype):
        params = init_params(TINY, 0, dtype)
        x = np.zeros((0, 6, 5), dtype)
        prob, trace = model_forward(x, params)
        got_prob, got_logit = model_score(x, params, 16)
        assert got_prob.shape == (0,)
        assert same_bits(got_prob, prob) and same_bits(got_logit, trace.logit)

    def test_all_zero_rows(self):
        # an all-zero batch has no live frame at all; it is scored as
        # model_forward scores it, alone and as the remainder of 20 rows
        config = replace(M1_13, max_frames=60)
        params = random_params(config, 7, scale=0.2).astype(np.float32)
        params.conv_b[...] = 0.0
        tail = scoring_input(config, 20, 0, np.float32, seed=6)
        tail[16:] = 0.0
        for x in (np.zeros((4, 60, 13), np.float32), tail):
            y = (np.arange(len(x)) % 2).astype(np.float32)
            prob, logit = batchwise_forward(x, params)
            got_prob, got_logit = model_score(x, params, 16)
            assert close(got_prob, prob) and close(got_logit, logit)
            self.assert_evaluate_reads(params, x, y, 16, len(x))

    def test_checks_its_input(self):
        params = init_params(TINY, 0)
        with pytest.raises(ParameterError):
            model_score(np.zeros((1, 6, 7)), params, 16)
        with pytest.raises(ParameterError, match="batch"):
            model_score(np.zeros((6, 5)), params, 16)


class TestLoss:
    def test_half_probability(self):
        # logit 0 is probability 1/2
        assert bce_from_logit(0.0, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert bce_from_logit(0.0, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_vanishes_at_correct_label(self):
        assert bce_from_logit(30.0, 1) == pytest.approx(0.0, abs=1e-9)
        assert bce_from_logit(-30.0, 0) == pytest.approx(0.0, abs=1e-9)

    def test_finite_at_extreme_logits(self):
        assert np.isfinite(bce_from_logit(1000.0, 0.0))
        assert np.isfinite(bce_from_logit(-1000.0, 1.0))

    def test_logit_gradient_is_p_minus_y(self):
        h = 1e-6
        for logit in (-2.0, 0.3, 4.0):
            for y in (0.0, 1.0):
                fd = (bce_from_logit(logit + h, y) - bce_from_logit(logit - h, y)) / (2 * h)
                p = 1.0 / (1.0 + math.exp(-logit))
                assert fd == pytest.approx(p - y, abs=1e-8)


class TestBackward:
    def test_dense_bias_gradient_at_zero_params(self):
        params = init_params(TINY, 0)
        for name in params.TENSOR_NAMES:
            getattr(params, name)[...] = 0.0
        x = np.random.default_rng(1).uniform(-1, 1, (1, 6, 5))
        for y in (0.0, 1.0):
            (p,), trace = model_forward(x, params)
            grads = model_backward(trace, np.array([y]), params)
            assert float(grads.dense_b) == pytest.approx(p - y, abs=1e-12)

    def test_dead_paths_have_zero_gradient(self):
        params = init_params(TINY, 0)
        params.lstm_w[...] = 0.0  # nothing reaches the LSTM from below
        x = np.random.default_rng(2).uniform(-1, 1, (1, 6, 5))
        _, trace = model_forward(x, params)
        grads = model_backward(trace, np.ones(1), params)
        assert np.all(grads.conv_w == 0.0)
        assert np.all(grads.conv_b == 0.0)

    @staticmethod
    def worst_fd_error(params, x, y, names=ModelParams.TENSOR_NAMES):
        """Largest relative error of the analytic gradient of the named tensors
        against a central difference of the mean loss."""
        _, trace = model_forward(x, params)
        grads = model_backward(trace, y, params)

        h = 1e-5
        worst = 0.0
        for name in names:
            tensor = getattr(params, name)
            grad = np.atleast_1d(np.asarray(getattr(grads, name)))
            flat = tensor.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = float(bce_from_logit(model_forward(x, params)[1].logit, y).mean())
                flat[idx] = orig - h
                down = float(bce_from_logit(model_forward(x, params)[1].logit, y).mean())
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                rel = abs(grad.reshape(-1)[idx] - fd) / max(1e-8, abs(fd))
                worst = max(worst, rel)
        return worst

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_gradients(self, seed):
        params = random_params(TINY, 100 + seed)
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(-1, 1, (2, 6, 5))
        y = rng.integers(0, 2, 2).astype(float)
        assert self.worst_fd_error(params, x, y) <= 1e-4

    @pytest.mark.parametrize("bias", ["zero", "positive"])
    def test_finite_difference_gradients_tail_padded(self, bias):
        # frames 3.. are padding in both samples (frames 2.. in the second):
        # the products skip them unless some conv_b > 0 opens the ReLU there
        params = random_params(TINY, 110)
        rng = np.random.default_rng(210)
        x = rng.uniform(-1, 1, (2, 6, 5))
        x[:, 3:] = 0.0
        x[1, 2:] = 0.0
        y = np.array([1.0, 0.0])
        names = ModelParams.TENSOR_NAMES
        if bias == "zero":
            # conv_b = 0 puts the padding's pre-activations on the ReLU kink,
            # where a central difference averages the two one-sided slopes
            params.conv_b[...] = 0.0
            names = tuple(name for name in names if name != "conv_b")
        else:
            params.conv_b[...] = [0.2, 0.4]
        assert model_forward(x, params)[1].live == (3 if bias == "zero" else 6)
        assert self.worst_fd_error(params, x, y, names) <= 1e-4

    def test_gradient_shapes_match_params(self):
        params = random_params(TINY, 15)
        x = np.random.default_rng(16).uniform(-1, 1, (3, 6, 5))
        _, trace = model_forward(x, params)
        grads = model_backward(trace, np.ones(3), params)
        for name in params.TENSOR_NAMES:
            assert getattr(grads, name).shape == getattr(params, name).shape

    def test_empty_batch_rejected(self):
        config = ModelConfig(filters=32, kernel_size=20, lstm_units=40, n_mfcc=40, max_frames=60)
        params = init_params(config, seed=0, dtype=np.float32)
        _, trace = model_forward(np.zeros((0, 60, 40), dtype=np.float32), params)
        with pytest.raises(ParameterError, match="empty batch"):
            model_backward(trace, np.zeros(0), params)


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count setter, the count restored afterwards."""
    before = _blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread-count function in this process")
    setter = _openblas_setter()[1]
    yield setter
    setter(before)


class TestOneBlasThread:
    """Training and scoring compute on one OpenBLAS thread, so their bits do
    not depend on the thread count the process ran at before. A batch of 10
    at T = 60 sums 600 rows in the lstm_w gradient, a product OpenBLAS splits
    differently on one thread and on two."""

    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5, 10, 16])
    @pytest.mark.parametrize("longest", [1, 8, 60])
    def test_gradients_same_bits_from_1_and_2_threads(self, blas_threads, config, dtype,
                                                      batch, longest):
        params = conv_bias(random_params(config, 7, scale=0.2), "zero").astype(dtype)
        x = padded_batch(config, batch, longest, dtype, seed=batch + longest)
        y = (np.arange(batch) % 2).astype(dtype)
        grads = []
        for threads in (1, 2):
            blas_threads(threads)
            with _one_blas_thread():
                _, trace = model_forward(x, params)
                grads.append(model_backward(trace, y, params))
            assert _blas_threads() == threads
        assert trace.live == longest
        assert [name for name in ModelParams.TENSOR_NAMES
                if not same_bits(getattr(grads[0], name), getattr(grads[1], name))] == []

    @pytest.mark.parametrize("config", [replace(c, max_frames=60) for c in (M1_13, M8_40)],
                             ids=["M1-13", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [2, 4, 16])
    def test_scores_same_bits_from_1_and_2_threads(self, blas_threads, config, dtype,
                                                   batch_size):
        params = conv_bias(random_params(config, 7, scale=0.2), "mixed").astype(dtype)
        x = scoring_input(config, 67, 0, dtype, seed=67)
        scores = []
        for threads in (1, 2):
            blas_threads(threads)
            with _one_blas_thread():
                scores.append(model_score(x, params, batch_size))
        assert same_bits(scores[0][0], scores[1][0]) and same_bits(scores[0][1], scores[1][1])


class TestParams:
    @pytest.mark.parametrize("filters,kernel,units,width", [
        (16, 5, 20, 13), (32, 20, 40, 40), (2, 3, 3, 5),
    ])
    def test_parameter_count_formula(self, filters, kernel, units, width):
        config = ModelConfig(filters=filters, kernel_size=kernel, lstm_units=units,
                             n_mfcc=width, max_frames=4)
        params = init_params(config, 0)
        d = width * filters
        expected = (kernel * filters + filters) + 4 * units * (d + units + 1) + (units + 1)
        assert params.n_params() == expected

    def test_forget_gate_bias_one(self):
        params = init_params(TINY, 3)
        u = TINY.lstm_units
        assert np.all(params.lstm_b[u : 2 * u] == 1.0)
        assert np.all(params.lstm_b[:u] == 0.0)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        params = random_params(TINY, 21)
        path = tmp_path / "model.json"
        save_model(params, path, extra={"note": "test"})
        back, extra = load_model(path)
        assert back.config == params.config
        assert extra == {"note": "test"}
        for name in params.TENSOR_NAMES:
            assert np.array_equal(getattr(back, name), getattr(params, name))

    def test_float32_roundtrip_exact(self, tmp_path):
        params = random_params(TINY, 22).astype(np.float32)
        path = tmp_path / "model32.json"
        save_model(params, path)
        back, extra = load_model(path)
        assert back.conv_w.dtype == np.float32
        assert extra == {}
        for name in params.TENSOR_NAMES:
            assert np.array_equal(getattr(back, name), getattr(params, name))

    @pytest.mark.parametrize("config", [TINY, M8_40], ids=["TINY", "M8-40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_same_bits_and_dtype(self, tmp_path, config, dtype):
        params = random_params(config, 23).astype(dtype)
        path = tmp_path / "model.json"
        save_model(params, path)
        back, _ = load_model(path)
        for name in params.TENSOR_NAMES:
            saved, loaded = getattr(params, name), getattr(back, name)
            assert loaded.dtype == np.dtype(dtype) and loaded.flags.writeable
            assert np.array_equal(loaded, saved)

    def test_document_fields(self, tmp_path):
        path = tmp_path / "model.json"
        for dtype in (np.float32, np.float64):
            params = init_params(TINY, 0, dtype)
            save_model(params, path)
            doc = json.loads(path.read_text())
            assert doc["format_version"] == 2
            assert tuple(doc["gate_order"]) == GATE_ORDER
            assert doc["dtype"] == np.dtype(dtype).name
            assert doc["tensors"]["lstm_w"]["shape"] == [12, 10]
            wire = np.dtype(dtype).newbyteorder("<")
            for name, t in params.tensors().items():
                data = base64.b64decode(doc["tensors"][name]["data"], validate=True)
                assert len(data) == wire.itemsize * t.size
                assert np.array_equal(np.frombuffer(data, dtype=wire), t.ravel())

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_params(TINY, 0), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        message = f"{re.escape(str(path))}: model format_version 99 is not 2"
        with pytest.raises(FormatError, match=message):
            load_model(path)

    def test_v1_document_rejected(self, tmp_path):
        """A model file as format 1 wrote it: float64 decimal lists."""
        params = init_params(TINY, 0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "gate_order": list(GATE_ORDER),
            "model_config": {"filters": 2, "kernel_size": 3, "lstm_units": 3,
                             "n_mfcc": 5, "max_frames": 6},
            "dtype": "float64",
            "tensors": {name: {"shape": list(t.shape), "data": t.ravel().tolist()}
                        for name, t in params.tensors().items()},
        }, sort_keys=True))
        with pytest.raises(FormatError, match="format_version 1 .*re-run `convser train`"):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        "junk", "truncated", "not_object", "missing_tensor", "missing_config",
        "bad_base64", "dtype", "model_config", "non_integer_config", "shape",
        "byte_count", "gate_order",
    ])
    def test_damaged_file_is_format_error_naming_it(self, tmp_path, damage):
        path = tmp_path / "model.json"
        save_model(init_params(TINY, 0), path)
        text = path.read_text()
        doc = json.loads(text)
        tensors = doc["tensors"]
        if damage == "junk":
            path.write_bytes(b"\x00\xff\x13\x37")
        elif damage == "truncated":
            path.write_text(text[: len(text) // 2])
        else:
            if damage == "not_object":
                doc = [doc]
            elif damage == "missing_tensor":
                del tensors["lstm_u"]
            elif damage == "missing_config":
                del doc["model_config"]
            elif damage == "bad_base64":
                tensors["lstm_b"]["data"] = "not base64!"
            elif damage == "dtype":
                doc["dtype"] = "int32"
            elif damage == "model_config":
                doc["model_config"]["filters"] = 0
            elif damage == "non_integer_config":
                doc["model_config"]["filters"] = 2.0
            elif damage == "shape":
                tensors["lstm_w"]["shape"] = [10, 12]
            elif damage == "byte_count":
                tensors["dense_w"]["data"] = tensors["dense_b"]["data"]
            elif damage == "gate_order":
                doc["gate_order"] = list(reversed(GATE_ORDER))
            path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_model(path)
