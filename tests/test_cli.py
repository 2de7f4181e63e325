"""End-to-end tests of the command-line surface and its exit codes."""
import configparser
from importlib import resources

import numpy as np
import pytest

from ofdmblind.cli import main
from ofdmblind.errors import ConfigError, DataError
from ofdmblind.estimator import EstimatorConfig, estimate_n
from ofdmblind.harness import SweepSpec
from ofdmblind.transmitter import OfdmConfig, read_iq_file

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

[other]
axis = num_taps
axis_values = 1, 2
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
master_seed = 8
"""


def run(argv):
    return main(argv)


def assert_one_error_naming(err, name):
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(name) in lines[0]


class TestGenerate:
    def test_sixteen_sample_file(self, tmp_path, capsys):
        out = tmp_path / "tiny.iq"
        rc = run(["generate", "--n", "2", "--cp", "2", "--symbols", "2",
                  "--blocks", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "16"
        assert out.stat().st_size == 16 * 8
        meta = configparser.ConfigParser()
        meta.read(tmp_path / "tiny.iq.meta", encoding="ascii")
        assert meta.sections() == ["generate"]
        assert dict(meta["generate"]) == {
            "n": "2", "cp": "2", "symbols": "2", "blocks": "2", "mod": "4",
            "taps": "1", "snr_db": "inf", "seed": "0"}

    def test_cp_longer_than_n_fails(self, tmp_path, capsys):
        rc = run(["generate", "--n", "4", "--cp", "5", "--out",
                  str(tmp_path / "x.iq")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_snr_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.iq"
        rc = run(["generate", "--snr-db", "nan", "--out", str(out)])
        assert rc == 1
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-inf", "-3100"])
    def test_snr_without_finite_noise_power_exits_one(self, tmp_path, capsys, snr):
        out = tmp_path / "x.iq"
        rc = run(["generate", f"--snr-db={snr}", "--out", str(out)])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, "snr_db")
        assert not out.exists()

    def test_capture_beyond_complex64_exits_two(self, tmp_path, capsys):
        # the noise at -800 dB is about 1e40, past the float32 range
        out = tmp_path / "x.iq"
        with np.errstate(over="raise"):
            rc = run(["generate", "--snr-db=-800", "--out", str(out)])
        assert rc == 2
        assert_one_error_naming(capsys.readouterr().err, "complex64")
        assert not out.exists()
        assert not (tmp_path / "x.iq.meta").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.iq"
        with pytest.raises(SystemExit) as err:
            run(["generate", "--seed", "-1", "--out", str(out)])
        assert err.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: argument --seed: seed must be >= 0, got -1")
        assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.iq", tmp_path / "b.iq"
        common = ["generate", "--n", "8", "--cp", "3", "--symbols", "10",
                  "--blocks", "2", "--taps", "2", "--snr-db", "15",
                  "--seed", "11"]
        assert run(common + ["--out", str(a)]) == 0
        assert run(common + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEstimate:
    def test_recovers_n_from_capture(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        assert run(["generate", "--taps", "4", "--snr-db", "20", "--seed", "3",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        rc = run(["estimate", "--in", str(out), "--cp", "7", "--taps", "4",
                  "--n-min", "16", "--n-max", "48"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_report_table(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run(["generate", "--n", "8", "--cp", "3", "--symbols", "20",
             "--blocks", "2", "--taps", "2", "--seed", "1", "--out", str(out)])
        table = tmp_path / "report.txt"
        rc = run(["estimate", "--in", str(out), "--cp", "3", "--taps", "2",
                  "--n-min", "4", "--n-max", "12", "--report", str(table)])
        assert rc == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "n_prime floor_ratio lag_score zeta_hat metric min_mdl"
        # one row per shortlisted candidate, in ascending order
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        report = estimate_n(read_iq_file(out), cfg)
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == 3
        assert [int(row[0]) for row in rows] == sorted(report.floor_ratios)
        # the floor ratio decides: its smallest row is the chosen N' = 8 + 3
        assert min(rows, key=lambda row: float(row[1]))[0] == "11"
        # each ratio and lag score is written exactly, so comparing reports
        # compares bits
        assert [(int(row[0]), float(row[1])) for row in rows] == list(report.floor_ratios.items())
        assert [float(row[2]) for row in rows] == [report.lag_scores[int(row[0]) - 3]
                                                   for row in rows]

    def test_truncated_file_exits_two(self, tmp_path, capsys):
        short = tmp_path / "short.iq"
        np.zeros(200, dtype="<f4").tofile(short)
        rc = run(["estimate", "--in", str(short), "--cp", "7", "--taps", "4",
                  "--n-min", "16", "--n-max", "48"])
        assert rc == 2
        assert "3025" in capsys.readouterr().err

    def test_non_finite_sample_exits_two(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run(["generate", "--taps", "4", "--snr-db", "20", "--seed", "3", "--out", str(out)])
        raw = np.fromfile(out, dtype="<f4")
        raw[101] = np.nan
        raw.tofile(out)
        capsys.readouterr()
        rc = run(["estimate", "--in", str(out), "--cp", "7", "--taps", "4",
                  "--n-min", "16", "--n-max", "48"])
        assert rc == 2
        assert "NaN" in capsys.readouterr().err

    def test_reversed_range_exits_one(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run(["generate", "--n", "8", "--cp", "3", "--symbols", "20",
             "--blocks", "2", "--out", str(out)])
        rc = run(["estimate", "--in", str(out), "--cp", "3", "--taps", "2",
                  "--n-min", "12", "--n-max", "4"])
        assert rc == 1

    def test_taps_beyond_cp_exits_one(self, tmp_path, capsys):
        out = tmp_path / "cap.iq"
        run(["generate", "--n", "8", "--cp", "3", "--symbols", "20",
             "--blocks", "2", "--out", str(out)])
        rc = run(["estimate", "--in", str(out), "--cp", "3", "--taps", "5",
                  "--n-min", "4", "--n-max", "12"])
        assert rc == 1
        assert "cp" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "none.iq"
        rc = run(["estimate", "--in", str(missing), "--cp", "7", "--taps", "4",
                  "--n-min", "16", "--n-max", "48"])
        assert rc == 2
        assert_one_error_naming(capsys.readouterr().err, missing)


class TestSweep:
    def test_spec_file_section(self, tmp_path, capsys):
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "quick.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick",
                  "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"2 points -> {out}"
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,axis_value,pd,trials,ci_halfwidth"
        assert len(lines) == 3

    def test_ambiguous_section_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT)
        rc = run(["sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "--section" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", [
        (b"axis = snr_db\n", "malformed sweep spec"),
        (b"[quick]\naxis = snr_db\n[quick]\naxis = snr_db\n", "malformed sweep spec"),
        (SPEC_TEXT.encode("ascii").replace(b"snr_db = 10", b"snr_db = 10\xb5"), "is not ASCII"),
        (SPEC_TEXT.encode("ascii").replace(b"snr_db = 10", b"snr_db = 10%"),
         "malformed sweep spec"),
    ], ids=["no-section-header", "duplicate-section", "non-ascii-byte", "stray-percent"])
    def test_malformed_spec_exits_one(self, tmp_path, capsys, text, reason):
        spec = tmp_path / "sweeps.ini"
        spec.write_bytes(text)
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not out.exists()

    def test_section_without_spec_exits_one(self, tmp_path, capsys):
        # a preset is named by --preset and --scale; --section would be ignored
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--preset", "fig2", "--section", "fig3", "--trials", "1",
                  "--out", str(out)])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, "--section")
        assert not out.exists()

    def test_zero_trials_exits_one(self, tmp_path, capsys):
        # and so does a zero worker-thread count
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT)
        for flag in ("--trials", "--threads"):
            rc = run(["sweep", "--spec", str(spec), "--section", "quick",
                      flag, "0", "--out", str(tmp_path / "x.csv")])
            assert rc == 1

    def test_infeasible_axis_point_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT.replace("n_max = 12", "n_max = 40"))
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        assert "N'=43 needs 1849 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_negative_snr_point_exits_one(self, tmp_path, capsys):
        # rejected when the spec is read, not mid-sweep
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT.replace("axis_values = 0, 10", "axis_values = -inf, 10"))
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, "snr_db=-inf")
        assert not out.exists()

    def test_axis_point_past_float_range_exits_one(self, tmp_path, capsys):
        # a 401-digit whole number reads as an int that no float holds
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT.replace("axis = snr_db\naxis_values = 0, 10",
                                          f"axis = n_subcarriers\naxis_values = {10**400}"))
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, f"n_subcarriers={10**400}:")
        assert not out.exists()

    @pytest.mark.parametrize("old,new,err", [
        ("taps = 2", "taps = 2.5", "axis point snr_db=0.0: num_taps must be an integer, got 2.5"),
        ("trials = 2", "trials = 2.5", "trials must be an integer, got 2.5"),
        ("n = 8", "n = 8.0", "n_subcarriers must be an integer, got 8.0"),
        ("axis = snr_db\naxis_values = 0, 10", "axis = num_taps\naxis_values = 2.5",
         "axis point num_taps=2.5: num_taps must be a whole number"),
    ], ids=["taps", "trials", "n", "taps-axis"])
    def test_spec_file_number_refused_by_its_rule(self, tmp_path, capsys, old, new, err):
        # a number that is not a whole count gets the configs' own text, not int()'s
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT.replace(old, new, 1))
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_subcarrier_count_outside_range_exits_one(self, tmp_path, capsys):
        # n_hat never leaves [n_min, n_max], so N = 10^12 can only miss; the
        # point used to build and then fail mid-sweep allocating its stream.
        # Only the section asked for is judged: [fig2] of the same file runs
        # as its preset does.
        presets = configparser.ConfigParser()
        presets.read_string(resources.files("ofdmblind").joinpath("presets.ini").read_text())
        presets["fig4"]["axis_values"] = str(10**12)
        spec = tmp_path / "sweeps.ini"
        with open(spec, "w") as fh:
            presets.write(fh)
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "fig4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: axis point n_subcarriers={10**12}: "
            f"n_subcarriers {10**12} outside [n_min, n_max] = [8, 96]\n"
        )
        assert not out.exists()
        preset = tmp_path / "preset.csv"
        assert run(["sweep", "--spec", str(spec), "--section", "fig2", "--trials", "2",
                    "--out", str(out)]) == 0
        assert run(["sweep", "--preset", "fig2", "--trials", "2", "--out", str(preset)]) == 0
        assert out.read_bytes() == preset.read_bytes()

    def test_negative_master_seed_exits_one(self, tmp_path, capsys):
        # rejected when the spec is read, not mid-sweep in a pool thread
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT.replace("master_seed = 7", "master_seed = -1"))
        out = tmp_path / "x.csv"
        rc = run(["sweep", "--spec", str(spec), "--section", "quick", "--out", str(out)])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, "master_seed must be >= 0, got -1")
        assert not out.exists()

    def test_missing_spec_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "none.ini"
        rc = run(["sweep", "--spec", str(missing), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert_one_error_naming(capsys.readouterr().err, missing)

    def test_out_in_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "none" / "x.csv"
        rc = run(["sweep", "--preset", "fig5", "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert_one_error_naming(capsys.readouterr().err, out)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tmp_path / "sweeps.ini"
        spec.write_text(SPEC_TEXT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--spec", str(spec), "--section", "quick"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preset_with_trial_override(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        rc = run(["sweep", "--preset", "fig3", "--trials", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        # L = 1..10 makes ten axis rows
        assert len(lines) == 11
        assert lines[1].startswith("num_taps,1,")


class TestRankCheck:
    def test_demo_defaults(self, capsys):
        rc = run(["rank-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "segment length 4: rank 3, expected 3" in out
        assert "(2, 4)" in out

    def test_taps_beyond_cp_exits_one(self, capsys):
        rc = run(["rank-check", "--taps", "3", "--cp", "2"])
        assert rc == 1

    def test_negative_seed_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["rank-check", "--seed", "-1"])
        assert err.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: argument --seed: seed must be >= 0, got -1")

    def test_stream_shorter_than_segment_squared_exits_one(self, monkeypatch, capsys):
        # N+P = 10 needs 100 samples; 2 blocks of 2 symbols hold 40. The
        # layout is rejected before any stream is simulated.
        def no_simulation(*args):
            raise AssertionError("rank-check simulated an infeasible layout")

        monkeypatch.setattr("ofdmblind.cli.simulate", no_simulation)
        rc = run(["rank-check", "--n", "8"])
        assert rc == 1
        assert_one_error_naming(capsys.readouterr().err, "100 samples")

    def test_threads_environment_variable_ignored(self, monkeypatch, capsys):
        # worker threads are set by --threads alone; a stray environment
        # value must not break argument parsing for any subcommand
        monkeypatch.setenv("OFDMBLIND_THREADS", "abc")
        assert run(["rank-check"]) == 0


class TestParsing:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--bogus", "1", "--out", "x.iq"])
        assert err.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["generate"])
        assert err.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 1


def test_every_boundary_gives_one_length_message(capsys):
    # N' = N + P = 10 needs 100 samples; 2 blocks of 2 symbols hold 40
    rule = ("candidate N'=10 needs 100 samples, the stream holds 40: "
            "10 segments of 10 samples, one per row of its covariance")
    with pytest.raises(DataError) as scan:
        estimate_n(np.zeros(40, dtype=complex),
                   EstimatorConfig(cp_len=2, num_taps=2, n_min=8, n_max=8))
    ofdm = OfdmConfig(n_subcarriers=8, cp_len=2, symbols_per_block=2, num_blocks=2)
    with pytest.raises(ConfigError) as spec:
        SweepSpec(axis="snr_db", axis_values=(10.0,), ofdm=ofdm, num_taps=2, snr_db=10.0,
                  n_min=8, n_max=8, trials=1, master_seed=0)
    assert run(["rank-check", "--n", "8"]) == 1
    assert str(scan.value) == rule
    assert str(spec.value) == f"axis point snr_db=10.0: {rule}"
    assert capsys.readouterr().err == f"error: {rule}\n"


def test_every_boundary_gives_one_channel_message(tmp_path, capsys):
    # L > P is refused where the config is built, before any file is read
    def rule(taps, cp):
        return f"num_taps must be <= cp_len, got num_taps={taps} cp_len={cp}"
    with pytest.raises(ConfigError) as cfg:
        EstimatorConfig(cp_len=7, num_taps=8, n_min=16, n_max=48)
    assert run(["estimate", "--in", str(tmp_path / "none.iq"), "--cp", "7", "--taps", "8",
                "--n-min", "16", "--n-max", "48"]) == 1
    estimate = capsys.readouterr().err
    assert run(["rank-check", "--cp", "2", "--taps", "3"]) == 1
    assert str(cfg.value) == rule(8, 7)
    assert estimate == f"error: {rule(8, 7)}\n"
    assert capsys.readouterr().err == f"error: {rule(3, 2)}\n"


def test_every_boundary_gives_one_range_message(tmp_path, capsys):
    # a reversed range is refused whatever L, past the cyclic prefix too,
    # where no point of the sweep builds an estimator
    rule = "n_max 4 below n_min 40"
    with pytest.raises(ConfigError) as cfg:
        EstimatorConfig(cp_len=7, num_taps=6, n_min=40, n_max=4)
    ofdm = OfdmConfig(n_subcarriers=32, cp_len=7, symbols_per_block=100, num_blocks=2)
    for taps in (6, 9):
        with pytest.raises(ConfigError) as spec:
            SweepSpec(axis="snr_db", axis_values=(10.0,), ofdm=ofdm, num_taps=taps,
                      snr_db=10.0, n_min=40, n_max=4, trials=1, master_seed=0)
        assert str(spec.value) == f"axis point snr_db=10.0: {rule}"
    spec_file = tmp_path / "sweeps.ini"
    quick = SPEC_TEXT.split("\n\n")[0]
    spec_file.write_text(quick.replace("taps = 2", "taps = 9").replace("n_min = 4", "n_min = 40")
                         .replace("n_max = 12", "n_max = 4"))
    out = tmp_path / "x.csv"
    assert run(["sweep", "--spec", str(spec_file), "--out", str(out)]) == 1
    assert str(cfg.value) == rule
    assert capsys.readouterr().err == f"error: axis point snr_db=0.0: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--spec", "{spec}", "--section", "quick"],
    ["generate", "--symbols", "1000000000000"],
], ids=["sweep", "generate"])
def test_stream_past_memory_gives_one_error_line(tmp_path, capsys, argv):
    # 10^12 symbols ask for 320 TiB (sweep) and 1.11 PiB (generate), past
    # any 47-bit address space, so the allocation fails before memory is
    # touched. A config that builds can still not fit the machine: exit 2.
    spec = tmp_path / "sweeps.ini"
    spec.write_text(SPEC_TEXT.replace("symbols = 20", "symbols = 1000000000000"))
    out = tmp_path / "out"
    rc = run([arg.format(spec=spec) for arg in argv] + ["--out", str(out)])
    assert rc == 2
    assert_one_error_naming(capsys.readouterr().err, "Unable to allocate")
    assert not out.exists()
