"""Tests for the Monte Carlo sweep engine, presets, and CSV output."""
import configparser
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ofdmblind.errors import ConfigError, DataError
from ofdmblind.harness import (
    PRESET_NAMES,
    SweepSpec,
    emit_csv,
    load_preset,
    load_spec_file,
    parse_sweep_specs,
    point_configs,
    run_sweep,
    run_trial,
    simulate,
    wilson_halfwidth,
)
from ofdmblind.transmitter import OfdmConfig


def small_spec(**overrides):
    base = dict(
        axis="snr_db",
        axis_values=(0.0, 20.0),
        ofdm=OfdmConfig(n_subcarriers=8, cp_len=3, symbols_per_block=20, num_blocks=2),
        num_taps=2,
        snr_db=10.0,
        n_min=4,
        n_max=12,
        trials=4,
        master_seed=99,
    )
    base.update(overrides)
    return SweepSpec(**base)


SPEC_TEXT = """\
[quick]
axis = snr_db
axis_values = 0, 10
n = 8
cp = 3
symbols = 20
blocks = 2
mod = 4
taps = 2
snr_db = 10
n_min = 4
n_max = 12
trials = 2
master_seed = 7
"""


class TestSweepSpec:
    def test_valid_spec_builds(self):
        assert small_spec().trials == 4

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(axis="bandwidth")

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(axis_values=())

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(trials=0)

    def test_negative_master_seed_rejected(self):
        # SeedSequence takes no negative entropy, which would fail mid-sweep
        with pytest.raises(ConfigError, match="master_seed must be >= 0, got -1"):
            small_spec(master_seed=-1)

    @pytest.mark.parametrize("label", ["", "DEFAULT", "a\nb", "a\rb", "\u00e9"],
                             ids=["empty", "DEFAULT", "newline", "return", "non-ascii"])
    def test_label_without_readable_sidecar_rejected(self, label):
        # the label names the provenance sidecar's one section: the parser
        # files DEFAULT under its defaults, a line break or empty name cannot
        # be read back, and the sidecar is written as ASCII
        with pytest.raises(ConfigError, match="label"):
            small_spec(label=label)

    def test_invalid_point_named(self):
        # cp_len = 0 is invalid per point, and the message says which point
        with pytest.raises(ConfigError, match="cp_len=0"):
            small_spec(axis="cp_len", axis_values=(3, 0))
        # a float count fails when built, at the first point, not mid-sweep
        with pytest.raises(ConfigError, match=r"^axis point snr_db=-5\.0: num_taps must be an "
                                              r"integer, got 6\.5$"):
            replace(load_preset("fig2"), num_taps=6.5)

    def test_stream_too_short_for_largest_candidate_rejected(self):
        # N=4 gives 7*20*2 = 280 samples; N'=15 needs 225, N'=18 needs 324
        with pytest.raises(ConfigError, match=r"n_subcarriers=4: candidate N'=18 needs 324"):
            small_spec(axis="n_subcarriers", axis_values=(8, 4), n_max=15)
        assert small_spec(axis="n_subcarriers", axis_values=(8, 4)).n_max == 12

    def test_stream_too_short_says_what_the_samples_are_for(self):
        with pytest.raises(ConfigError, match=r"holds 280: 18 segments of 18 samples, one per"):
            small_spec(axis="n_subcarriers", axis_values=(8, 4), n_max=15)

    @pytest.mark.parametrize("axis,value", [
        ("num_taps", 2.5), ("n_subcarriers", 16.7), ("cp_len", 3.5), ("mod_order", 16.5),
        ("num_taps", float("nan")), ("num_taps", float("inf")),
    ])
    def test_fractional_point_on_integer_axis_rejected(self, axis, value):
        # it would run truncated, and its sidecar would rerun the truncated
        # point, not the one its CSV row names
        with pytest.raises(ConfigError, match=rf"axis point {axis}={value}: .*whole number"):
            replace(load_preset("fig3"), axis=axis, axis_values=(value,), trials=2)

    @pytest.mark.parametrize("axis", ["n_subcarriers", "snr_db"])
    def test_axis_point_past_float_range_rejected(self, axis):
        # it overflowed float() uncaught; the CSV writes every point as a float
        with pytest.raises(ConfigError, match=rf"axis point {axis}=1000+: .*too large"):
            replace(load_preset("fig4"), axis=axis, axis_values=(10**400,))

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5), ("trials", 2.0), ("master_seed", 1.5), ("master_seed", "7"),
    ])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        # it built, then died mid-sweep in range() or SeedSequence
        with pytest.raises(ConfigError, match=rf"{field} must be an integer, got {value!r}"):
            replace(load_preset("fig2"), **{field: value})

    @pytest.mark.parametrize("field", ["trials", "master_seed"])
    def test_numpy_integer_count_and_seed_accepted(self, field):
        assert getattr(replace(load_preset("fig2"), **{field: np.int64(3)}), field) == 3

    def test_whole_float_on_integer_axis_accepted(self):
        spec = replace(load_preset("fig3"), axis_values=(2.0,), trials=2)
        assert point_configs(spec, 2.0)[1].num_taps == 2


class TestPointConfigs:
    def test_snr_axis_only_touches_noise(self):
        spec = small_spec()
        ofdm, chan, est = point_configs(spec, 20.0)
        assert chan.snr_db == 20.0
        assert ofdm == spec.ofdm
        assert est.num_taps == spec.num_taps

    def test_taps_axis_updates_channel_and_estimator(self):
        spec = small_spec(axis="num_taps", axis_values=(1, 3))
        _, chan, est = point_configs(spec, 3)
        assert chan.num_taps == 3
        assert est.num_taps == 3

    def test_subcarrier_axis_resizes_blocks(self):
        spec = small_spec(axis="n_subcarriers", axis_values=(8, 16))
        ofdm, _, _ = point_configs(spec, 16)
        assert ofdm.n_subcarriers == 16
        assert ofdm.block_len == 20 * 19

    def test_mod_axis(self):
        spec = small_spec(axis="mod_order", axis_values=(4, 64))
        ofdm, _, _ = point_configs(spec, 64)
        assert ofdm.mod_order == 64

    def test_cp_axis_updates_both_sides(self):
        spec = small_spec(axis="cp_len", axis_values=(2, 4))
        ofdm, _, est = point_configs(spec, 4)
        assert ofdm.cp_len == 4
        assert est.cp_len == 4


class TestSimulate:
    # sha256 of the received samples for seed 3, as `ofdmblind generate
    # --seed 3` seeds them: fig2 at 10 dB at both scales, one tap and
    # L = P = 7 from fig3, and 256-QAM on fig5's base. They pin every
    # seeded stream bit for bit, not only the decisions; a change that
    # alters a stream by design updates the digest and records the old
    # and the new one.
    @pytest.mark.parametrize("preset, scale, value, digest", [
        ("fig2", "desk", 10.0, "572b1a3f4488a80f962a20b9e40e0eb41fbb898550007f4ad123f04aab759341"),
        ("fig2", "paper", 10.0, "71503fc94757224f6a510544d2c8efabfd2519903121c279915ed4a4216545dc"),
        ("fig3", "desk", 1, "3d1422c159b5c9012938edee2dccc233123984eb729a4f8f9480d93c9a98306c"),
        ("fig3", "desk", 7, "e0e212040cd468fee6b4e872c090c6b7b8abcf0e96ef40a800fab397ea009b77"),
        ("fig5", "desk", 256, "9dc78461999160165e16cab5abe12efd2e4584182a3cf2ec38b107759ba8e222"),
    ], ids=["fig2-desk", "fig2-paper", "L=1", "L=P", "256-QAM"])
    def test_streams_pinned(self, preset, scale, value, digest):
        ofdm, chan, _ = point_configs(load_preset(preset, scale), value)
        samples = simulate(ofdm, chan, 3).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


class TestRunTrial:
    def test_noise_free_trial_detects(self):
        ofdm, chan, est = point_configs(small_spec(snr_db=float("inf")), float("inf"))
        assert run_trial(ofdm, chan, est, (1, 2, 3)) is True

    def test_same_seed_same_outcome(self):
        ofdm, chan, est = point_configs(small_spec(), 10.0)
        a = run_trial(ofdm, chan, est, (0, 0, 5))
        b = run_trial(ofdm, chan, est, (0, 0, 5))
        assert a == b

    def test_channel_longer_than_cp_misses(self, monkeypatch):
        # L = 8 and 9 against P = 7 leave no rank missing: each trial is a
        # miss without a stream drawn, even where N = n_min
        def no_simulation(*args):
            raise AssertionError("a trial past the cyclic prefix drew a stream")

        monkeypatch.setattr("ofdmblind.harness.simulate", no_simulation)
        spec = SweepSpec(
            axis="num_taps",
            axis_values=(8, 9),
            ofdm=OfdmConfig(n_subcarriers=16, cp_len=7, symbols_per_block=100,
                            num_blocks=2),
            num_taps=6,
            snr_db=10.0,
            n_min=16,
            n_max=48,
            trials=20,
            master_seed=0,
        )
        assert point_configs(spec, 8)[2] is None
        assert [pt.pd for pt in run_sweep(spec, workers=2).points] == [0.0, 0.0]
        # and where the channel outlasts a whole block: T = 3 samples
        # against 4 taps, a spec that builds and runs
        ofdm = OfdmConfig(n_subcarriers=2, cp_len=1, symbols_per_block=1, num_blocks=100)
        spec = small_spec(ofdm=ofdm, num_taps=4, n_min=2, n_max=2)
        assert [pt.pd for pt in run_sweep(spec).points] == [0.0, 0.0]


class TestWilsonHalfwidth:
    @pytest.mark.parametrize("successes,trials,expected", [
        (50, 100, 0.096168),
        (95, 100, 0.045103),
        (0, 100, 0.018497),
    ])
    def test_published_values(self, successes, trials, expected):
        # endpoints for 50/100 are the textbook (0.404, 0.596)
        assert wilson_halfwidth(successes, trials) == pytest.approx(expected, abs=1e-6)

    def test_symmetric_in_successes(self):
        assert wilson_halfwidth(10, 40) == pytest.approx(wilson_halfwidth(30, 40))

    def test_shrinks_with_trials(self):
        assert wilson_halfwidth(100, 200) < wilson_halfwidth(50, 100)


class TestRunSweep:
    def test_single_noise_free_trial_is_certain(self):
        spec = small_spec(axis_values=(float("inf"),), trials=1)
        result = run_sweep(spec)
        assert len(result.points) == 1
        assert result.points[0].pd == 1.0

    def test_points_follow_axis_order(self):
        spec = small_spec()
        result = run_sweep(spec)
        assert [pt.axis_value for pt in result.points] == [0.0, 20.0]
        for pt in result.points:
            assert pt.trials == spec.trials
            wins = round(pt.pd * pt.trials)
            assert pt.ci_halfwidth == pytest.approx(wilson_halfwidth(wins, pt.trials))

    def test_worker_count_cannot_change_results(self):
        spec = small_spec()
        serial = run_sweep(spec, workers=1)
        threaded = run_sweep(spec, workers=4)
        assert serial.points == threaded.points

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(small_spec(trials=1), workers=0)
        with pytest.raises(ConfigError, match=r"workers must be an integer, got 1\.5"):
            run_sweep(small_spec(trials=1), workers=1.5)

    def test_numpy_integer_counts_run_as_ints(self):
        # every config takes numpy integers, and the sweep runs as with ints
        i64 = np.int64
        ofdm = OfdmConfig(n_subcarriers=i64(8), cp_len=i64(3), symbols_per_block=i64(20),
                          num_blocks=i64(2), mod_order=i64(4))
        spec = small_spec(ofdm=ofdm, num_taps=i64(2), n_min=i64(4), n_max=i64(12),
                          trials=i64(4), master_seed=i64(99))
        assert run_sweep(spec, workers=i64(2)).points == run_sweep(small_spec()).points


class TestEmitCsv:
    def test_layout_and_sidecar(self, tmp_path):
        spec = small_spec(trials=2)
        result = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        emit_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,axis_value,pd,trials,ci_halfwidth"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "snr_db"
        assert first[1] == "0"
        assert first[3] == "2"
        prov = configparser.ConfigParser()
        prov.read(tmp_path / "sweep.csv.provenance.txt", encoding="ascii")
        assert prov.sections() == ["sweep"]
        assert prov["sweep"]["master_seed"] == "99"

    @pytest.mark.parametrize("spec", [
        *(replace(load_preset(name), trials=2) for name in PRESET_NAMES),
        # values whose shortest decimal form is long, and a noise-free base
        small_spec(axis_values=(0.1 + 0.2, 1 / 3, -7.25), snr_db=float("inf"), trials=2),
    ], ids=[*PRESET_NAMES, "awkward-snr"])
    def test_sidecar_reruns_the_sweep(self, tmp_path, spec):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), a)
        reloaded = load_spec_file(f"{a}.provenance.txt")
        assert reloaded == {spec.label: spec}
        emit_csv(run_sweep(reloaded[spec.label]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = small_spec(trials=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec, workers=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises(self, tmp_path):
        result = run_sweep(small_spec(trials=1))
        with pytest.raises(DataError):
            emit_csv(result, tmp_path / "missing" / "out.csv")

    @pytest.mark.parametrize("preset, digest", [
        ("fig2", "8d81547a7e2157c7a4d01a8ffcb3f3ce74f3467c432682207c518af74deb5dfe"),
        ("fig3", "c273bc0d2d8721cdf5780973020b14ba3038b33f75e00e402cad2a7ea4501904"),
    ], ids=["fig2", "fig3"])
    def test_desk_decisions_pinned(self, tmp_path, preset, digest):
        # 20 trials per point of a desk preset: fig2 is the benchmark's
        # desk reference CSV, and fig3 reaches L > P at L = 8..10. A change
        # that alters decisions by design updates the digest and records
        # the old and the new one.
        out = tmp_path / f"{preset}.csv"
        emit_csv(run_sweep(replace(load_preset(preset), trials=20)), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_paper_fig2_decisions_pinned(self, tmp_path, workers):
        # 12 fig2.paper trials (N=64, M=500, K=5), the benchmark's paper
        # reference CSV; updated the same way as the desk digest. Two
        # workers run trials side by side.
        out = tmp_path / "fig2.paper.csv"
        emit_csv(run_sweep(replace(load_preset("fig2", "paper"), trials=2), workers), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "324677316d932d502b2a56db0ab3fa63cf95509e90e9667d8d1dca87e0c5eb46"
        )


class TestSpecFiles:
    def test_parse_round_trip(self):
        specs = parse_sweep_specs(SPEC_TEXT)
        assert set(specs) == {"quick"}
        spec = specs["quick"]
        assert spec.axis == "snr_db"
        assert spec.axis_values == (0.0, 10.0)
        assert spec.ofdm.n_subcarriers == 8
        assert spec.label == "quick"

    def test_missing_key_names_section(self):
        broken = SPEC_TEXT.replace("trials = 2\n", "")
        with pytest.raises(ConfigError, match="quick"):
            parse_sweep_specs(broken)

    def test_bad_value_rejected(self):
        broken = SPEC_TEXT.replace("n = 8", "n = eight")
        with pytest.raises(ConfigError):
            parse_sweep_specs(broken)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_spec_file(tmp_path / "nope.ini")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_packaged_presets_valid(self, name, scale):
        spec = load_preset(name, scale)
        assert spec.trials >= 100
        assert len(spec.axis_values) >= 3

    def test_snr_preset_shape(self):
        spec = load_preset("fig2")
        assert spec.axis == "snr_db"
        assert spec.axis_values == (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
        assert spec.trials == 200

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            load_preset("fig9")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            load_preset("fig2", scale="huge")
