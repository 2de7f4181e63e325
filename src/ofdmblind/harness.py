"""Monte Carlo detection-probability sweeps.

A sweep varies one axis (SNR, channel order, subcarrier count, CP length
or modulation order) over a base configuration and estimates, per axis
value, the probability that the blind estimator recovers the true
subcarrier count. Trial seeds are derived from (master_seed, axis_index,
trial_index) alone, so results are identical however the trials are
scheduled, and a rerun of the same spec is byte-for-byte reproducible.

Spec files are flat key=value INI sections. `emit_csv` writes the
sweep's provenance sidecar as one such section, so `load_spec_file`
reads it back into an equal spec, and `write_section` also writes the
`.meta` sidecar of a generated capture.
"""
from __future__ import annotations

import configparser
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .channel import ChannelConfig, apply_block_channel, draw_realization
from .errors import ConfigError, DataError, check_count
from .estimator import EstimatorConfig, estimate_n
from .transmitter import IqSequence, OfdmConfig, generate_stream

AXES = ("snr_db", "num_taps", "n_subcarriers", "mod_order", "cp_len")

# Two-sided 95% normal quantile for the Wilson interval.
_WILSON_Z = 1.959963984540054

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus the axis to sweep and the trial budget."""
    axis: str
    axis_values: tuple
    ofdm: OfdmConfig
    num_taps: int
    snr_db: float
    n_min: int
    n_max: int
    trials: int
    master_seed: int
    label: str = "sweep"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.axis_values:
            raise ConfigError("axis_values must be non-empty")
        # a float count or seed would fail only mid-sweep, in range() or SeedSequence
        check_count("trials", self.trials, 1)
        check_count("master_seed", self.master_seed, 0)
        # the label names the provenance sidecar's section, which must read back
        label = self.label
        if label in ("", "DEFAULT") or not label.isascii() or "\n" in label or "\r" in label:
            raise ConfigError(f"label must be one line of ASCII, not DEFAULT, got {label!r}")
        for value in self.axis_values:
            try:
                point_configs(self, value)
            except (ConfigError, OverflowError) as err:  # an int past the float range
                raise ConfigError(f"axis point {self.axis}={value}: {err}") from None


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    pd: float
    trials: int
    ci_halfwidth: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    spec: SweepSpec
    version: str


def point_configs(spec: SweepSpec, axis_value):
    """Derive the per-point config bundle with the axis value applied; the one
    judge of whether a point can run, it refuses configs that do not build,
    an N outside [n_min, n_max] and a stream too short for the largest N'."""
    ofdm = spec.ofdm
    num_taps, snr_db = spec.num_taps, spec.snr_db
    if spec.axis == "snr_db":
        snr_db = float(axis_value)
    elif not float(axis_value).is_integer():
        raise ConfigError(f"{spec.axis} must be a whole number")
    elif spec.axis == "num_taps":
        num_taps = int(axis_value)
    else:
        # the other three axes are named after their OfdmConfig field
        ofdm = replace(ofdm, **{spec.axis: int(axis_value)})
    chan = ChannelConfig(num_taps=num_taps, snr_db=snr_db)
    # past the cyclic prefix the range and length are checked as at L = P
    est = EstimatorConfig(cp_len=ofdm.cp_len, num_taps=min(num_taps, ofdm.cp_len),
                          n_min=spec.n_min, n_max=spec.n_max)
    if not spec.n_min <= ofdm.n_subcarriers <= spec.n_max:
        # n_hat never leaves [n_min, n_max], so every trial would miss
        raise ConfigError(f"n_subcarriers {ofdm.n_subcarriers} outside [n_min, n_max] = "
                          f"[{spec.n_min}, {spec.n_max}]")
    if short := est.too_short(ofdm.stream_len):
        raise ConfigError(short)
    # past the cyclic prefix no rank goes missing: no estimator, every trial a miss
    return ofdm, chan, est if num_taps <= ofdm.cp_len else None


def simulate(ofdm_cfg: OfdmConfig, chan_cfg: ChannelConfig, seed) -> IqSequence:
    """The received stream of one transmission through the channel.

    seed is any SeedSequence entropy (int or tuple of ints); data,
    channel and noise each get their own child stream so holding one
    fixed while varying the others stays possible.
    """
    data_ss, chan_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    s = generate_stream(ofdm_cfg, data_ss)
    real = draw_realization(chan_cfg, ofdm_cfg.num_blocks, chan_ss)
    return apply_block_channel(s, real, noise_ss)


def run_trial(ofdm_cfg: OfdmConfig, chan_cfg: ChannelConfig,
              est_cfg: EstimatorConfig | None, trial_seed) -> bool:
    """One generate/channel/estimate round; True iff N was recovered.
    A point without an estimator (L > P) misses without drawing a stream."""
    if est_cfg is None:
        return False
    report = estimate_n(simulate(ofdm_cfg, chan_cfg, trial_seed), est_cfg)
    return report.n_hat == ofdm_cfg.n_subcarriers


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval; trials >= 1, as SweepSpec checks."""
    z2 = _WILSON_Z ** 2
    p = successes / trials
    return (_WILSON_Z / (1.0 + z2 / trials)) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials ** 2)
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every (axis value, trial) pair and aggregate Pd per point.

    Trials run on a pool of `workers` threads (at least one); each one is
    a pure function of its seed tuple, and the pool returns outcomes in
    seed order, point by point, so the worker count cannot change them.
    """
    from . import __version__

    check_count("workers", workers, 1)

    trials = spec.trials
    bundles = [point_configs(spec, value) for value in spec.axis_values]
    seeds = [(spec.master_seed, i, t) for i in range(len(bundles)) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(lambda seed: run_trial(*bundles[seed[1]], seed), seeds))
    points = []
    for i, value in enumerate(spec.axis_values):
        wins = sum(outcomes[i * trials:(i + 1) * trials])
        points.append(SweepPoint(axis_value=value, pd=wins / trials, trials=trials,
                                 ci_halfwidth=wilson_halfwidth(wins, trials)))
    return SweepResult(points=tuple(points), spec=spec, version=__version__)


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep as CSV plus a provenance sidecar, `<path>.provenance.txt`.

    The sidecar is a spec file of one section named after the spec's
    label; `load_spec_file` reads it back into an equal spec, so
    `ofdmblind sweep --spec <path>.provenance.txt` rewrites the CSV byte
    for byte. Its `version` key records the package version and is not
    read back.
    """
    spec = result.spec
    if spec.axis == "snr_db":
        values = [repr(float(v)) for v in spec.axis_values]
    else:
        values = [str(int(v)) for v in spec.axis_values]
    fields = {
        "version": result.version,
        "axis": spec.axis,
        "axis_values": ", ".join(values),
        "snr_db": repr(float(spec.snr_db)),
        **{key: getattr(spec.ofdm, field) for key, field in OFDM_KEYS.items()},
        **{key: getattr(spec, field) for key, field in SWEEP_KEYS.items()},
    }
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("axis,axis_value,pd,trials,ci_halfwidth\n")
            for pt in result.points:
                fh.write(
                    f"{spec.axis},{float(pt.axis_value):.10g},{pt.pd:.6f},"
                    f"{pt.trials},{pt.ci_halfwidth:.6f}\n"
                )
        write_section(f"{path}.provenance.txt", spec.label, fields)
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from None


# --- key=value spec files -------------------------------------------------

# spec-file key -> OfdmConfig field, and spec-file key -> SweepSpec field
OFDM_KEYS = {"n": "n_subcarriers", "cp": "cp_len", "symbols": "symbols_per_block",
             "blocks": "num_blocks", "mod": "mod_order"}
SWEEP_KEYS = {"taps": "num_taps", "n_min": "n_min", "n_max": "n_max",
              "trials": "trials", "master_seed": "master_seed"}


def write_section(path, name: str, fields: dict) -> None:
    """Write `fields` as the one key=value section [name] of an ASCII file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser[name] = {key: str(value) for key, value in fields.items()}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        parser.write(fh)


def _number(text: str):
    """The int that text spells, else its float: the configs' own rules judge it."""
    try:
        return int(text)
    except ValueError as err:
        try:
            return float(text)
        except ValueError:
            raise err from None  # text that is no number keeps int()'s message


def load_spec_file(path, section=None) -> SweepSpec:
    """Build the spec of one section of a key=value spec file: `section`, or
    the file's only one when None. No other section is built or judged."""
    try:
        with open(path, "rb") as fh:
            # decoded and newline-translated as text mode would, without
            # importing the ascii codec's module into a preset's set-up
            text = fh.read().decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as err:
        raise DataError(f"cannot read sweep spec {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"sweep spec {path} is not ASCII: {err}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        names = parser.sections()
        if section is None and len(names) != 1:
            raise ConfigError(f"{path} holds {sorted(names)}; pick one with --section")
        section = names[0] if section is None else section
        if section not in names:
            raise ConfigError(f"no section [{section}] in {path}")
        keys = parser[section]
        axis = keys["axis"]
        values = tuple(float(v) if axis == "snr_db" else _number(v)
                       for v in keys["axis_values"].split(",") if v.strip())
        ofdm = {field: _number(keys[key]) for key, field in OFDM_KEYS.items()}
        sweep = {field: _number(keys[key]) for key, field in SWEEP_KEYS.items()}
        snr_db = float(keys["snr_db"])
    except configparser.Error as err:
        raise ConfigError(f"malformed sweep spec: {err}") from None
    except KeyError as err:
        raise ConfigError(f"sweep spec [{section}] is missing key {err}") from None
    except ValueError as err:
        raise ConfigError(f"sweep spec [{section}]: {err}") from None
    return SweepSpec(axis=axis, axis_values=values, ofdm=OfdmConfig(**ofdm),
                     snr_db=snr_db, label=section, **sweep)


def load_preset(name: str, scale: str = "desk") -> SweepSpec:
    """Load one of the packaged figure presets at desk or paper scale."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, choose from {PRESET_NAMES}")
    if scale not in ("desk", "paper"):
        raise ConfigError(f"scale must be 'desk' or 'paper', got {scale!r}")
    with resources.as_file(resources.files(__package__) / "presets.ini") as path:
        return load_spec_file(path, name if scale == "desk" else f"{name}.paper")
