"""Work counts computed from shapes and arguments, not timed.

Each function here is checked against a hand count at a toy shape in
test_perfbench.py. The benchmark reports the results under their own metric
names and lists them on its ``computed`` line.
"""

from __future__ import annotations

import math
import pickle

import numpy as np


def forward_flops(batch, frames, n_mfcc, kernel, filters, units) -> int:
    """Multiply-add FLOPs (2 per MAC) of one CNN-LSTM forward pass:
    convolution, LSTM input projection, recurrent projection, dense unit."""
    conv = 2 * batch * frames * n_mfcc * kernel * filters
    input_proj = 2 * batch * frames * (n_mfcc * filters) * 4 * units
    recurrent = 2 * batch * frames * units * 4 * units
    dense = 2 * batch * units
    return conv + input_proj + recurrent + dense


def backward_flops(batch, frames, n_mfcc, kernel, filters, units) -> int:
    """FLOPs of the matching backward pass: the weight gradient of every
    product above plus the input gradients the chain rule needs (the LSTM
    input and the recurrent state; the convolution input gets none)."""
    conv_w = 2 * batch * frames * n_mfcc * kernel * filters
    lstm_w_and_input = 2 * 2 * batch * frames * (n_mfcc * filters) * 4 * units
    lstm_u_and_state = 2 * 2 * batch * frames * units * 4 * units
    dense = 2 * 2 * batch * units
    return conv_w + lstm_w_and_input + lstm_u_and_state + dense


def model_shape(x_shape, config):
    """(batch, frames, n_mfcc, kernel, filters, units) of one forward call."""
    batch, frames = (1, x_shape[0]) if len(x_shape) == 2 else x_shape[:2]
    return (batch, frames, config.n_mfcc, config.kernel_size, config.filters,
            config.lstm_units)


def stretch_searches(n_in, rate, grain_len, hop_len) -> int:
    """Similarity searches one time_stretch call makes: one per grain after
    the first, with the grain geometry time_stretch derives from the clip
    length (a rate of exactly 1.0 copies the clip and searches nothing)."""
    if rate == 1.0:
        return 0
    n_out = int(round(n_in / rate))
    grain = min(grain_len, n_in, max(n_out, 2))
    hop = max(1, min(hop_len, grain // 4))
    return max(math.ceil(n_out / hop) - 1, 0)


def array_bytes(obj) -> int:
    """Logical bytes of every ndarray attribute of obj (views count in full)."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def pickled_bytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.DEFAULT_PROTOCOL))
