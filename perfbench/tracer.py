"""In-memory span recording around convser's public functions.

The tracer replaces a function in every convser module namespace that
holds it, so a call is recorded whichever name the caller looks it up by
(``cli.model_forward``, ``train_eval.model_forward`` and the definition
``neural_net.model_forward`` all reach the same wrapper). Spans carry the
canonical ``<defining module>.<function>`` name, their start and end on the
``perf_counter`` clock, the span that was open when they started, and the id
of the benchmark operation (one CLI call) they belong to.

A target that the package no longer defines is recorded as missing instead
of failing, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field

# Functions wrapped per module: the public functions the CLI path calls.
# Test-only helpers (conv1d_timedistributed_forward, flatten_per_timestep,
# dense_sigmoid_forward, bce_loss, DatasetManifest.by_id) are left alone.
TARGETS = {
    "cli": ("main",),
    "synth_data": ("generate_corpus",),
    "audio_io": ("load_wav", "write_wav", "load_manifest", "save_manifest", "resample_linear"),
    "augmentation": ("augment_dataset", "time_stretch", "pitch_shift", "add_noise"),
    "dsp_features": ("extract_features", "save_features", "load_features",
                     "cached_features_fresh"),
    "neural_net": ("init_params", "model_forward", "lstm_forward", "model_backward",
                   "save_model", "load_model"),
    # _run_cell is the per-cell function run_grid hands to its pool; wrapping
    # it gives the cell span and the pickled size of one task
    "train_eval": ("run_grid", "_run_cell", "cross_validate", "train_model", "adam_step"),
}


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped functions; `op` names the current
    benchmark operation and is set by the caller before each CLI call."""

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.op = 0
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._hooks = hooks or {}
        self._open: list[int] = []

    def install(self, package) -> None:
        """Wrap every TARGETS function at each module attribute that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            for fn_name in functions:
                qualified = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None) if module else None
                if not callable(original):
                    self.missing.append(qualified)
                    continue
                wrapper = self._wrap(qualified, original)
                sites = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            sites.append(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}")
                self.sites[qualified] = sorted(sites)

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, open_stack, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, self.op, open_stack[-1] if open_stack else None, 0.0)
            spans.append(span)
            open_stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result)
            return result

        # the wrapper stands in for fn at import paths that pickle may follow
        wrapper.__module__ = fn.__module__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }, default=str) + "\n")


def children(spans):
    """Map span id -> list of direct child spans, in start order."""
    out = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_time(span, kids) -> float:
    """Span duration minus the part its direct children cover."""
    return span.duration - sum(c.duration for c in kids.get(span.id, ()))
