"""Self-test of the benchmark at toy size, and hand counts of the computed metrics.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from counts import array_bytes, backward_flops, forward_flops, pickled_bytes, stretch_searches  # noqa: E402
from tracer import Tracer  # noqa: E402

# toy shape used by the hand counts below
B, T, M, K, F, U = 2, 3, 4, 3, 2, 5


def test_forward_flops_hand_count():
    conv = 2 * 2 * 3 * 4 * 3 * 2          # 288
    input_proj = 2 * 2 * 3 * 8 * 20       # 1920
    recurrent = 2 * 2 * 3 * 5 * 20        # 1200
    dense = 2 * 2 * 5                     # 20
    assert forward_flops(B, T, M, K, F, U) == conv + input_proj + recurrent + dense == 3428


def test_backward_flops_hand_count():
    assert backward_flops(B, T, M, K, F, U) == 288 + 2 * 1920 + 2 * 1200 + 2 * 20 == 6568


def test_m8_40_forward_is_about_046_gflop():
    assert forward_flops(16, 60, 40, 20, 32, 40) / 1e9 == pytest.approx(0.4547, abs=1e-4)


def test_stretch_searches_hand_count():
    # 1 s at 44.1 kHz slowed to 0.9: 49000 output samples, 2048-sample grains
    # every 512 samples -> 96 grains, the first placed without a search
    assert stretch_searches(44100, 0.9, 2048, 512) == 95
    # a clip shorter than a grain: 909 outputs, so grain = 909 and hop = 227
    # -> grains at 0, 227, 454, 681, 908
    assert stretch_searches(1000, 1.1, 2048, 512) == 4
    assert stretch_searches(44100, 1.0, 2048, 512) == 0


def test_stretch_searches_match_time_stretch_calls(monkeypatch):
    """The computed count equals the searches time_stretch actually runs today."""
    from convser import augmentation
    from convser.audio_io import AudioBuffer

    calls = []
    real = np.correlate
    monkeypatch.setattr(augmentation.np, "correlate",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    x = np.sin(np.arange(44100) * 0.05)
    augmentation.time_stretch(AudioBuffer(x, 44100), 0.9)
    if not calls:
        pytest.skip("time_stretch no longer searches with np.correlate")
    assert len(calls) == 95


def test_forward_trace_bytes_hand_count():
    from convser.neural_net import ModelConfig, init_params, model_forward

    config = ModelConfig(filters=F, kernel_size=K, lstm_units=U, n_mfcc=M, max_frames=T)
    params = init_params(config, seed=0, dtype=np.float32)
    _, trace = model_forward(np.zeros((B, T, M), dtype=np.float32), params)
    elements = (
        B * T * M            # x: 24
        + B * T * M * K      # windows: 72
        + B * T * M * F      # conv_pre: 48
        + B * T * M * F      # flat: 48
        + T * 4 * B * U      # gates: 120
        + 3 * T * B * U      # cell, tanh_cell, h_prev: 90
        + B * U              # h_final: 10
        + 2 * B              # logit, prob: 4
    )
    assert elements == 416
    assert array_bytes(trace) == 416 * 4


def test_model_parameter_count_and_file_bytes(tmp_path):
    from convser.neural_net import ModelConfig, init_params, save_model

    config = ModelConfig(filters=F, kernel_size=K, lstm_units=U, n_mfcc=M, max_frames=T)
    params = init_params(config, seed=0, dtype=np.float32)
    # conv_w 6 + conv_b 2 + lstm_w 20*8 + lstm_u 20*5 + lstm_b 20 + dense_w 5 + dense_b 1
    assert params.n_params() == 6 + 2 + 160 + 100 + 20 + 5 + 1 == 294
    path = tmp_path / "toy.model.json"
    save_model(params, path)
    assert path.stat().st_size == len(path.read_bytes()) > 294


def test_task_bytes_cover_the_feature_arrays():
    # 3 matrices of 4x2 float64 = 192 array bytes; pickling adds only framing
    features = {f"id{i}": np.zeros((4, 2)) for i in range(3)}
    size = pickled_bytes(("config", features))
    assert 192 < size < 192 + 600


def test_tracer_wraps_every_lookup_site_and_records_missing(monkeypatch):
    import convser
    import convser.cli  # noqa: F401
    from convser import cli, neural_net, train_eval
    from convser.neural_net import ModelConfig, init_params

    # every convser module attribute is restored when the test ends
    for name, module in list(sys.modules.items()):
        if name == "convser" or name.startswith("convser."):
            for attr, value in list(vars(module).items()):
                monkeypatch.setattr(module, attr, value)
    monkeypatch.delattr(train_eval, "_run_cell")
    original = neural_net.model_forward

    tracer = Tracer()
    tracer.install(convser)
    assert cli.model_forward is train_eval.model_forward is neural_net.model_forward
    assert cli.model_forward is not original
    assert {"cli.model_forward", "train_eval.model_forward", "neural_net.model_forward"} <= set(
        tracer.sites["neural_net.model_forward"])
    assert "cli.load_model" in tracer.sites["neural_net.load_model"]
    assert "augmentation.write_wav" in tracer.sites["audio_io.write_wav"]
    assert tracer.missing == ["train_eval._run_cell"]

    config = ModelConfig(filters=F, kernel_size=K, lstm_units=U, n_mfcc=M, max_frames=T)
    tracer.op = 7
    cli.model_forward(np.zeros((B, T, M), dtype=np.float32), init_params(config, 0, np.float32))
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["neural_net.model_forward"], by_name["neural_net.lstm_forward"]
    assert inner.parent == outer.id and outer.parent is None and inner.op == outer.op == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def _run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                             else None), proc


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}, [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(trace):
    units, workloads = _declared("per_layer" if trace else "end_to_end")
    for workload in workloads:
        code, result, proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace), "--toy"], ROOT)
        assert code == 0, proc.stderr[-2000:]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _copy_checkout(dst: Path, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_failed_output_check_exits_nonzero(tmp_path):
    """A predict command that prints an impossible probability fails its check."""
    _copy_checkout(tmp_path)
    init = tmp_path / "src" / "convser" / "__init__.py"
    init.write_text(init.read_text() + (
        "\nfrom . import cli as _cli\n"
        "_cli.cmd_predict = lambda args: print(f'{args.wavs[0]}\\t1.5000\\t1') or 0\n"))
    code, result, proc = _run(["--workload", "train", "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--toy"], tmp_path)
    assert code == 1, proc.stderr[-2000:]
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "check failed: predict" in proc.stderr


def test_no_program_exits_nonzero_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    code, result, proc = _run(["--workload", "prep", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], tmp_path)
    assert code != 0 and result is None
