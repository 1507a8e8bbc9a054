import json
import math

import numpy as np
import pytest

from convser.exceptions import ParameterError
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
    save_model,
    zeros_like_params,
)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_gradients(self, seed):
        params = random_params(TINY, 100 + seed)
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(-1, 1, (2, 6, 5))
        y = rng.integers(0, 2, 2).astype(float)
        _, trace = model_forward(x, params)
        grads = model_backward(trace, y, params)

        h = 1e-5
        worst = 0.0
        for name in params.TENSOR_NAMES:
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
        assert worst <= 1e-4

    def test_gradient_shapes_match_params(self):
        params = random_params(TINY, 15)
        x = np.random.default_rng(16).uniform(-1, 1, (3, 6, 5))
        _, trace = model_forward(x, params)
        grads = model_backward(trace, np.ones(3), params)
        for name in params.TENSOR_NAMES:
            assert getattr(grads, name).shape == getattr(params, name).shape


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

    def test_grid_membership_flag(self):
        assert ModelConfig(filters=16, kernel_size=5, lstm_units=20, n_mfcc=13).in_paper_grid
        assert not ModelConfig(filters=17, kernel_size=5, lstm_units=20, n_mfcc=13).in_paper_grid


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        params = random_params(TINY, 21)
        path = tmp_path / "model.json"
        save_model(params, path, extra={"note": "test"})
        back = load_model(path)
        assert back.config == params.config
        for name in params.TENSOR_NAMES:
            assert np.array_equal(getattr(back, name), getattr(params, name))

    def test_float32_roundtrip_exact(self, tmp_path):
        params = random_params(TINY, 22).astype(np.float32)
        path = tmp_path / "model32.json"
        save_model(params, path)
        back = load_model(path)
        assert back.conv_w.dtype == np.float32
        for name in params.TENSOR_NAMES:
            assert np.array_equal(getattr(back, name), getattr(params, name))

    def test_document_fields(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_params(TINY, 0), path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert tuple(doc["gate_order"]) == GATE_ORDER
        assert doc["tensors"]["lstm_w"]["shape"] == [12, 10]

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_params(TINY, 0), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="format_version"):
            load_model(path)
