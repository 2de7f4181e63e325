"""In-memory span recording for the traced benchmark run.

A span is one call of a wrapped function: its name, the span that was
open on the same thread when it started (its parent), wall time and the
calling thread's CPU time. Wall minus CPU is time the call spent waiting,
for the interpreter lock among other things. Spans are appended to a list
during the run and aggregated or written out only when it ends.

Layers are wrapped by replacing a function's name in the module that
calls it, so the package itself carries no tracing code.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from dataclasses import astuple, dataclass, fields

# (metric name, module whose global is patched, attribute name). The
# metric name is the layer that defines the function; the patched module
# is the one that looks the name up at call time.
LAYERS = (
    ("harness.run_trial", "ofdmblind.harness", "run_trial"),
    ("transmitter.generate_stream", "ofdmblind.harness", "generate_stream"),
    ("numerics.idft_apply", "ofdmblind.transmitter", "idft_apply"),
    ("channel.draw_realization", "ofdmblind.harness", "draw_realization"),
    ("channel.apply_block_channel", "ofdmblind.harness", "apply_block_channel"),
    ("estimator.estimate_n", "ofdmblind.harness", "estimate_n"),
    ("estimator.segment", "ofdmblind.estimator", "segment"),
    ("estimator.covariance", "ofdmblind.estimator", "covariance"),
    ("numerics.hermitian_eigenvalues", "ofdmblind.estimator", "hermitian_eigenvalues"),
    ("estimator.mdl", "ofdmblind.estimator", "mdl"),
)

# Spans opened by the benchmark around its own calls into the package.
BENCH_SPANS = ("harness.run_sweep", "estimator.estimate_n", "transmitter.read_iq_file")

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in LAYERS] + list(BENCH_SPANS)))


def _covariance_flop(args, kwargs):
    """Computed flop count 8*N'^2*M' of one covariance call, from its input shape."""
    seg = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(getattr(seg, "data", seg), "shape", ())
    if len(shape) != 2:
        return None
    n_prime, m_prime = shape
    return 8 * n_prime * n_prime * m_prime


def _candidate_count(args, kwargs):
    """Candidate segment lengths one estimate_n call is asked to scan."""
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    candidates = getattr(cfg, "candidates", None)
    return None if candidates is None else len(candidates)


# Work counted per call for some layers, computed from the call's arguments.
WORK = {
    "estimator.covariance": _covariance_flop,
    "estimator.estimate_n": _candidate_count,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    wall: float
    cpu: float
    work: int | None


class Recorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)
            # The CPU interval nests inside the wall interval, so wall >= cpu.
            start = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - start
                stack.pop()
                self.spans.append(Span(
                    span_id, parent_id, name, threading.get_ident(), start, wall, cpu,
                    work(args, kwargs) if work else None,
                ))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer in LAYERS for the duration of the block.

        Yields the metric names whose function, or the module that used
        to call it, no longer exists; those layers are reported absent.
        """
        saved, absent = [], []
        try:
            for name, module_name, attr in LAYERS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    absent.append(name)
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    absent.append(name)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield tuple(dict.fromkeys(absent))
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        """One JSON list per span, after a first line naming the fields."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps([f.name for f in fields(Span)]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(astuple(span)) + "\n")


def layer_metrics(spans, absent=()) -> dict:
    """Per-layer totals in ms: wall, calls, self (wall minus child spans) and wait.

    Names in `absent` are left out rather than reported as zero; a
    present layer that this workload never calls reports zero calls.
    """
    child_wall = {}
    for span in spans:
        if span.parent_id is not None:
            child_wall[span.parent_id] = child_wall.get(span.parent_id, 0.0) + span.wall
    totals = {name: [0.0, 0, 0.0, 0.0] for name in SPAN_NAMES if name not in absent}
    for span in spans:
        t = totals[span.name]
        t[0] += span.wall
        t[1] += 1
        t[2] += span.wall - child_wall.get(span.span_id, 0.0)
        t[3] += span.wall - span.cpu
    metrics = {}
    for name, (wall, calls, self_wall, wait) in totals.items():
        metrics[f"{name}.ms"] = (wall * 1e3, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_wall * 1e3, "ms")
        metrics[f"{name}.wait_ms"] = (wait * 1e3, "ms")
    return metrics


def work_total(spans, name):
    """Sum of the work counted on spans of `name`, or None if none was counted."""
    counted = [s.work for s in spans if s.name == name and s.work is not None]
    return sum(counted) if counted else None
