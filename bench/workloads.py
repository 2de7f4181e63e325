"""The benchmark's workloads and the timed calls they make into ofdmblind.

All three use the `fig2` preset (Pd against SNR):

- desk-sweep: `run_sweep` at desk scale (N=32, M=100, K=2) over all six
  SNR points. Small matrices, so the candidate scan's per-call Python
  work, `eigvalsh` and the thread pool's lock contention dominate.
- paper-sweep: `run_sweep` at paper scale (N=64, M=500, K=5). Covariance
  dominates, with transmitter and channel second; BLAS releases the
  interpreter lock, so threads help here.
- paper-estimate: closed loop, one caller, `read_iq_file` + `estimate_n`
  on paper-scale captures at 20 dB written during set-up. It bypasses the
  harness, transmitter and channel, so changes there should not move it.

Every timed call's input comes from two sets. The reference set uses the
preset's own master seed, so its Pd and digests repeat exactly in every
run; the rest derive from the benchmark's --seed.
"""
from __future__ import annotations

import hashlib
import itertools
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import ofdmblind
import spans
from ofdmblind.harness import point_configs

PRESET = "fig2"


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "estimate"
    scale: str  # scale of the fig2 preset
    trials: int = 0  # sweep: trials per SNR point in each timed run_sweep call
    captures: int = 0  # estimate: captures in the reference set and in the seeded set
    snr_db: float = 20.0  # estimate: SNR of the captures


WORKLOADS = {
    "desk-sweep": Workload("sweep", "desk", trials=20),
    "paper-sweep": Workload("sweep", "paper", trials=2),
    "paper-estimate": Workload("estimate", "paper", captures=50),
}


@dataclass
class Calls:
    """Outcome of a sequence of timed calls."""
    walls: list = field(default_factory=list)  # seconds
    decisions: list = field(default_factory=list)  # trials decided by the call
    # Per attempted call: the CSV sha256 of a sweep or the n_hat of an
    # estimate (None when the call raised), and the decisions that
    # recovered N (0 when it raised).
    outputs: list = field(default_factory=list)
    wins: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record_failure(self, decisions: int) -> None:
        traceback.print_exc()
        self.failed += decisions
        self.problems.append(f"call {len(self.outputs)} raised")
        self.outputs.append(None)
        self.wins.append(0)

    def trials_per_s(self) -> float:
        return sum(self.decisions) / sum(self.walls)

    def latency_ms(self, q: float) -> float:
        return float(np.percentile(self.walls, q)) * 1e3


def _stop(calls: Calls, start: float, seconds: float, count, min_calls: int) -> bool:
    done = len(calls.outputs)
    if count is not None:
        return done >= count
    return done >= min_calls and time.perf_counter() - start >= seconds


# --- sweeps -------------------------------------------------------------

def sweep_base(workload: Workload):
    return replace(ofdmblind.load_preset(PRESET, workload.scale), trials=workload.trials)


def sweep_specs(base, seed: int):
    """Specs of the timed run_sweep calls: the preset's master seed, then seeded ones."""
    yield base
    rng = np.random.default_rng(seed)
    while True:
        yield replace(base, master_seed=int(rng.integers(2**31)))


def csv_digest(result, path) -> str:
    """sha256 of the CSV that emit_csv writes for a sweep result."""
    ofdmblind.emit_csv(result, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_sweep(result, spec) -> list:
    """Problems with a sweep result's shape and counts; empty when it is sound."""
    problems = []
    if len(result.points) != len(spec.axis_values):
        problems.append(f"{len(result.points)} points for {len(spec.axis_values)} axis values")
    for point, value in zip(result.points, spec.axis_values):
        wins = point.pd * spec.trials
        if (float(point.axis_value) != float(value) or point.trials != spec.trials
                or not 0.0 <= point.pd <= 1.0 or abs(wins - round(wins)) > 1e-9):
            problems.append(f"bad point {point} for {spec.axis}={value}")
    return problems


def run_sweeps(run_sweep, specs, workers: int, csv_path, seconds: float = 0.0,
               count=None, min_calls: int = 3) -> Calls:
    """Time successive run_sweep calls until `seconds` pass or `count` calls are made."""
    calls = Calls()
    start = time.perf_counter()
    for spec in specs:
        if _stop(calls, start, seconds, count, min_calls):
            break
        decisions = spec.trials * len(spec.axis_values)
        calls.attempted += decisions
        t0 = time.perf_counter()
        try:
            result = run_sweep(spec, workers=workers)
        except Exception:
            calls.record_failure(decisions)
            continue
        calls.walls.append(time.perf_counter() - t0)
        calls.decisions.append(decisions)
        calls.wins.append(round(sum(p.pd for p in result.points) * spec.trials))
        calls.problems.extend(check_sweep(result, spec))
        calls.outputs.append(csv_digest(result, csv_path))
    return calls


# --- estimates ----------------------------------------------------------

def estimate_setup(workload: Workload):
    spec = ofdmblind.load_preset(PRESET, workload.scale)
    ofdm, chan, est = point_configs(spec, workload.snr_db)
    return spec, ofdm, chan, est


def write_captures(workload: Workload, seed: int, workdir) -> list:
    """Write the reference captures, then the seeded ones; returns their paths.

    Capture i of a set is the received stream of trial i at the 20 dB
    point of a fig2 sweep with that set's master seed, drawn exactly as
    run_trial draws it.
    """
    spec, ofdm, chan, _ = estimate_setup(workload)
    axis_index = spec.axis_values.index(workload.snr_db)
    seeded_master = int(np.random.default_rng(seed).integers(2**31))
    paths = []
    for master in (spec.master_seed, seeded_master):
        for trial in range(workload.captures):
            data_ss, chan_ss, noise_ss = np.random.SeedSequence(
                (master, axis_index, trial)).spawn(3)
            stream = ofdmblind.generate_stream(ofdm, data_ss)
            real = ofdmblind.draw_realization(chan, ofdm.num_blocks, chan_ss)
            received = ofdmblind.apply_block_channel(stream, real, noise_ss)
            path = workdir / f"capture-{len(paths):03d}.iq"
            ofdmblind.write_iq_file(path, received.samples)
            paths.append(path)
    return paths


def run_estimates(read_iq_file, estimate_n, paths, est, n_true: int,
                  seconds: float = 0.0, count=None, min_calls: int = 1) -> Calls:
    """Closed loop over the captures, in order and cyclically, one call at a time."""
    calls = Calls()
    start = time.perf_counter()
    for path in itertools.cycle(paths):
        if _stop(calls, start, seconds, count, min_calls):
            break
        calls.attempted += 1
        t0 = time.perf_counter()
        try:
            n_hat = estimate_n(read_iq_file(path), est).n_hat
        except Exception:
            calls.record_failure(1)
            continue
        calls.walls.append(time.perf_counter() - t0)
        calls.decisions.append(1)
        calls.wins.append(int(n_hat == n_true))
        if not (isinstance(n_hat, (int, np.integer)) and est.n_min <= n_hat <= est.n_max):
            calls.problems.append(f"n_hat {n_hat!r} outside [{est.n_min}, {est.n_max}]")
        done = len(calls.outputs)
        if done >= len(paths) and calls.outputs[done - len(paths)] not in (None, n_hat):
            calls.problems.append(f"{path.name}: n_hat {n_hat} differs from the previous pass")
        calls.outputs.append(n_hat)
    return calls


def n_hat_digest(n_hats) -> str:
    return hashlib.sha256(",".join(str(n) for n in n_hats).encode()).hexdigest()


# --- measurement --------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, workers: int, workdir,
            spans_file, report: dict):
    """Run one workload; returns (metrics as name -> (value, unit), call records).

    With tracing off the metrics are end to end, except setup_s, which the
    caller measures in fresh processes. With tracing on, half of `seconds`
    is timed untraced, the same calls are repeated traced, and the metrics
    are per layer.
    """
    workload = WORKLOADS[name]
    if workload.kind == "sweep":
        return _measure_sweep(workload, seed, seconds, trace, workers, workdir, spans_file,
                              report)
    return _measure_estimate(workload, seed, seconds, trace, workdir, spans_file, report)


def _measure_sweep(workload, seed, seconds, trace, workers, workdir, spans_file, report):
    base = sweep_base(workload)
    csv = workdir / "sweep.csv"
    # The reference spec once with one worker: warms up, and must give the
    # same CSV as the timed multi-worker call on the same spec.
    serial = run_sweeps(ofdmblind.run_sweep, [base], 1, csv, count=1)
    timed = run_sweeps(ofdmblind.run_sweep, sweep_specs(base, seed), workers, csv,
                       seconds / 2 if trace else seconds)
    report["digests"] = {
        "reference_csv_sha256": timed.outputs[0],
        "reference_csv_sha256_workers_1": serial.outputs[0],
        "seeded_csv_sha256": timed.outputs[1:],
    }
    if serial.outputs[0] != timed.outputs[0]:
        timed.problems.append(f"reference CSV differs between workers=1 and workers={workers}")
    records = [serial, timed]
    if not trace:
        return _end_to_end(timed, timed.wins[:1], base.trials * len(base.axis_values),
                           report), records

    def traced_calls(rec):
        return run_sweeps(rec.wrap("harness.run_sweep", ofdmblind.run_sweep),
                          sweep_specs(base, seed), workers, csv, count=len(timed.outputs))
    return _traced(timed, traced_calls, ("harness.run_sweep",), spans_file, report,
                   records)


def _measure_estimate(workload, seed, seconds, trace, workdir, spans_file, report):
    _, ofdm, _, est = estimate_setup(workload)
    paths = write_captures(workload, seed, workdir)
    ofdmblind.estimate_n(ofdmblind.read_iq_file(paths[0]), est)  # warm-up, untimed
    n_true = ofdm.n_subcarriers
    if not trace:
        # One full pass at least, so Pd and the digest cover every capture.
        timed = run_estimates(ofdmblind.read_iq_file, ofdmblind.estimate_n, paths, est,
                              n_true, seconds, min_calls=len(paths))
        report["digests"] = {"n_hat_sha256": n_hat_digest(timed.outputs[:len(paths)])}
        return _end_to_end(timed, timed.wins[:workload.captures], workload.captures,
                           report), [timed]

    timed = run_estimates(ofdmblind.read_iq_file, ofdmblind.estimate_n, paths, est, n_true,
                          seconds / 2, min_calls=10)
    report["digests"] = {"n_hat_sha256": n_hat_digest(timed.outputs)}

    def traced_calls(rec):
        return run_estimates(rec.wrap("transmitter.read_iq_file", ofdmblind.read_iq_file),
                             rec.wrap("estimator.estimate_n", ofdmblind.estimate_n),
                             paths, est, n_true, count=len(timed.outputs))
    return _traced(timed, traced_calls, ("transmitter.read_iq_file", "estimator.estimate_n"),
                   spans_file, report, [timed])


def _require_timings(*calls):
    if not all(c.walls for c in calls):
        sys.exit("error: every timed call raised; there is no timing to report")


def _end_to_end(timed, reference_wins, reference_trials, report):
    """End-to-end metrics; Pd counts a reference trial whose call raised as wrong."""
    _require_timings(timed)
    report["samples"] = {
        "trials_per_s": sum(timed.decisions),
        "latency_p50_ms": len(timed.walls),
        "latency_p90_ms": len(timed.walls),
        "pd": reference_trials,
        "peak_rss_mb": 1,
    }
    return {
        "trials_per_s": (timed.trials_per_s(), "1/s"),
        "latency_p50_ms": (timed.latency_ms(50), "ms"),
        "latency_p90_ms": (timed.latency_ms(90), "ms"),
        "pd": (sum(reference_wins) / reference_trials, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _traced(untraced, traced_calls, bench_spans, spans_file, report, records):
    """Repeat the untraced calls with every layer wrapped; per-layer metrics."""
    rec = spans.Recorder()
    with rec.patched() as missing:
        run = traced_calls(rec)
    records.append(run)
    _require_timings(untraced, run)
    if run.outputs != untraced.outputs:
        run.problems.append("traced and untraced calls gave different outputs")
    report["digests"]["traced_outputs_match"] = run.outputs == untraced.outputs
    absent = tuple(name for name in missing if name not in bench_spans)
    report["absent_layers"] = list(absent)
    report["samples"] = {"untraced_calls": len(untraced.walls), "traced_calls": len(run.walls),
                         "spans": len(rec.spans)}
    rec.write_jsonl(spans_file)

    metrics = spans.layer_metrics(rec.spans, absent)
    candidates = spans.work_total(rec.spans, "estimator.estimate_n")
    if candidates is not None:
        metrics["estimator.candidates"] = (candidates, "count")
    flop = spans.work_total(rec.spans, "estimator.covariance")
    if flop is not None:
        cov_s = metrics["estimator.covariance.ms"][0] / 1e3
        metrics["estimator.covariance.gflop"] = (flop / 1e9, "GFLOP-computed")
        metrics["estimator.covariance.gflops"] = (flop / 1e9 / cov_s, "GFLOP/s-computed")
    sweep_wall = sum(s.wall for s in rec.spans if s.name == "harness.run_sweep")
    trial_wall = sum(s.wall for s in rec.spans if s.name == "harness.run_trial")
    metrics["harness.concurrency"] = (trial_wall / sweep_wall if sweep_wall else 0.0, "ratio")
    metrics["trace_overhead.trials_per_s"] = (run.trials_per_s() - untraced.trials_per_s(), "1/s")
    metrics["trace_overhead.latency_p50_ms"] = (run.latency_ms(50) - untraced.latency_ms(50),
                                                "ms")
    return metrics, records
