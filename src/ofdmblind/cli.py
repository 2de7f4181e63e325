"""Command-line front end.

Subcommands: `generate` synthesizes a stream through the channel and
writes an IQ file, `estimate` recovers the subcarrier count from one,
`sweep` runs a Monte Carlo detection-probability sweep to CSV, and
`rank-check` demonstrates the noise-free rank signature. Exit codes:
0 success, 1 usage or configuration error, 2 data, estimation or memory
error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .channel import ChannelConfig
from .errors import ConfigError, DataError
from .estimator import (
    EstimatorConfig,
    duplicate_row_pairs,
    estimate_n,
    mdl,
    rank_oracle_noise_free,
)
from .harness import (OFDM_KEYS, PRESET_NAMES, emit_csv, load_preset, load_spec_file,
                      run_sweep, simulate, write_section)
from .transmitter import OfdmConfig, read_iq_file, write_iq_file

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def seed(text: str) -> int:
    """A --seed value: a non-negative integer, as SeedSequence requires."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ofdmblind", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a stream and write an IQ file")
    gen.add_argument("--n", type=int, default=32, help="number of subcarriers")
    gen.add_argument("--cp", type=int, default=7, help="cyclic prefix length")
    gen.add_argument("--symbols", type=int, default=100, help="OFDM symbols per block")
    gen.add_argument("--blocks", type=int, default=2, help="fading blocks")
    gen.add_argument("--mod", type=int, default=4, help="QAM order (4, 16, 64, 256)")
    gen.add_argument("--taps", type=int, default=1, help="channel taps")
    gen.add_argument("--snr-db", type=float, default=float("inf"),
                     help="SNR in dB; inf means noise-free")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--out", required=True, help="output IQ file path")

    est = sub.add_parser("estimate", help="estimate the subcarrier count from an IQ file")
    est.add_argument("--in", dest="infile", required=True, help="input IQ file")
    est.add_argument("--cp", type=int, required=True, help="known CP length")
    est.add_argument("--taps", type=int, required=True, help="known channel order")
    est.add_argument("--n-min", type=int, required=True)
    est.add_argument("--n-max", type=int, required=True)
    est.add_argument("--report", help="write the per-candidate table to this path")

    swp = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV")
    group = swp.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--spec", help="sweep spec file (key=value sections)")
    swp.add_argument("--section", help="section name inside --spec (default: its only one)")
    swp.add_argument("--scale", choices=("desk", "paper"), default="desk")
    swp.add_argument("--trials", type=int, help="override the preset trial count")
    swp.add_argument("--threads", type=int, default=1, help="worker threads")
    swp.add_argument("--out", required=True, help="output CSV path")

    rnk = sub.add_parser("rank-check", help="show the noise-free rank signature")
    rnk.add_argument("--n", type=int, default=2)
    rnk.add_argument("--cp", type=int, default=2)
    rnk.add_argument("--taps", type=int, default=2)
    rnk.add_argument("--symbols", type=int, default=2)
    rnk.add_argument("--blocks", type=int, default=2)
    rnk.add_argument("--seed", type=seed, default=0)
    return parser


def cmd_generate(args) -> int:
    cfg = OfdmConfig(
        n_subcarriers=args.n,
        cp_len=args.cp,
        symbols_per_block=args.symbols,
        num_blocks=args.blocks,
        mod_order=args.mod,
    )
    received = simulate(cfg, ChannelConfig(num_taps=args.taps, snr_db=args.snr_db), args.seed)
    count = write_iq_file(args.out, received)
    fields = {key: getattr(cfg, field) for key, field in OFDM_KEYS.items()}
    write_section(f"{args.out}.meta", "generate", {
        **fields, "taps": args.taps, "snr_db": repr(args.snr_db), "seed": args.seed})
    print(count)
    return 0


def cmd_estimate(args) -> int:
    cfg = EstimatorConfig(cp_len=args.cp, num_taps=args.taps, n_min=args.n_min, n_max=args.n_max)
    samples = read_iq_file(args.infile)
    report = estimate_n(samples, cfg)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write("n_prime floor_ratio lag_score zeta_hat metric min_mdl\n")
            for n_prime, ratio in report.floor_ratios.items():
                lag_score = report.lag_scores[n_prime - args.cp]
                curve = mdl(report.eigen_spectra[n_prime], len(samples) // n_prime)
                miss = abs(curve.zeta_hat - (n_prime - cfg.missing))
                fh.write(f"{n_prime} {ratio!r} {lag_score!r} {curve.zeta_hat} {miss} "
                         f"{float(np.min(curve.values)):.6g}\n")
    print(report.n_hat)
    return 0


def cmd_sweep(args) -> int:
    if args.section is not None and not args.spec:
        raise ConfigError("--section applies only to --spec, not to --preset")
    spec = (load_spec_file(args.spec, args.section) if args.spec
            else load_preset(args.preset, scale=args.scale))
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    result = run_sweep(spec, workers=args.threads)
    emit_csv(result, args.out)
    print(f"{len(result.points)} points -> {args.out}")
    return 0


def cmd_rank_check(args) -> int:
    cfg = OfdmConfig(
        n_subcarriers=args.n,
        cp_len=args.cp,
        symbols_per_block=args.symbols,
        num_blocks=args.blocks,
    )
    est = EstimatorConfig(cp_len=args.cp, num_taps=args.taps, n_min=args.n, n_max=args.n)
    if short := est.too_short(cfg.stream_len):
        raise ConfigError(short)
    received = simulate(cfg, ChannelConfig(num_taps=args.taps, snr_db=float("inf")), args.seed)
    n_star = cfg.symbol_len
    rank = rank_oracle_noise_free(received, n_star)
    expected = n_star - est.missing
    pairs = duplicate_row_pairs(received, cfg.n_subcarriers, cfg.cp_len, args.taps)
    print(f"segment length {n_star}: rank {rank}, expected {expected}")
    print(f"duplicate row pairs: {pairs}")
    if rank != expected or len(pairs) != est.missing:
        print("error: rank signature not observed", file=sys.stderr)
        return 2
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
    "rank-check": cmd_rank_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
