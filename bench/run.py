"""Benchmark of ofdmblind: sweep throughput, estimate latency and Pd.

Run from the repository root:

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Workloads are desk-sweep, paper-sweep and paper-estimate (see
bench/workloads.py). The package is imported from ./src, never from an
installed copy; without ./src the benchmark exits 2 and prints no result.

With --trace 0 it times the workload with tracing off and reports the
end-to-end metrics. With --trace 1 it times half the run untraced, then
repeats the same calls with every layer wrapped in spans, and reports
per-layer metrics plus the tracing overhead; spans are written to
bench/out/spans-<workload>.jsonl.

Standard output ends with two JSON lines: a report with provenance,
sample counts, digests and any failed checks, then the result object
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# BLAS and OpenMP threading must be pinned before numpy loads: on two
# cores BLAS threads alone move small-matrix timings by 10x, and the sweep
# workloads already load every core with their own worker threads.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-sweep", "paper-sweep", "paper-estimate")

SETUP_RUNS = 7
# Import the package and build the workload's configs, in a fresh process.
SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import ofdmblind
from ofdmblind.harness import point_configs
spec = ofdmblind.load_preset({preset!r}, {scale!r})
for value in spec.axis_values:
    point_configs(spec, value)
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# --- provenance ---------------------------------------------------------

def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_config(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def provenance(np, ofdmblind, seed: int, workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(np),
        "thread_env": {key: os.environ.get(key) for key in PINNED_THREADS},
        "workers": workers,
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "ofdmblind": ofdmblind.__version__,
    }


def setup_seconds(preset: str, scale: str) -> list:
    """Set-up time of SETUP_RUNS fresh processes, each timed from inside."""
    script = SETUP_SCRIPT.format(src=str(SRC), preset=preset, scale=scale)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ofdmblind" / "__init__.py").is_file():
        print(f"error: no ofdmblind package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ofdmblind
    if Path(ofdmblind.__file__).resolve().parent != (SRC / "ofdmblind").resolve():
        print(f"error: imported ofdmblind from {ofdmblind.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0)) if workload.kind == "sweep" else 1
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(np, ofdmblind, args.seed, workers)}
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}.jsonl"
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, records = workloads.measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace), workers, workdir, spans_file,
                                             report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        setup = setup_seconds(workloads.PRESET, workload.scale)
        metrics["setup_s"] = (statistics.median(setup), "s")
        report["samples"]["setup_s"] = len(setup)
        report["setup_s_runs"] = setup

    problems = [p for r in records for p in r.problems]
    report["problems"] = problems
    report["units"] = {name: unit for name, (_, unit) in metrics.items()}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
