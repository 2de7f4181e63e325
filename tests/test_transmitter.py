"""Tests for CP-OFDM stream synthesis and the IQ file format."""
import hashlib

import numpy as np
import pytest

from ofdmblind.errors import ConfigError, DataError
from ofdmblind.transmitter import (
    IqSequence,
    OfdmConfig,
    generate_stream,
    qam_constellation,
    read_iq_file,
    write_iq_file,
)


def on_constellation(points, mod_order):
    """True iff every point is one of the mod_order QAM points."""
    dist = np.abs(np.ravel(points)[:, None] - qam_constellation(mod_order)[None, :])
    return bool(np.all(np.min(dist, axis=1) < 1e-9))


def appendix_cfg():
    return OfdmConfig(n_subcarriers=2, cp_len=2, symbols_per_block=2, num_blocks=2)


class TestOfdmConfig:
    def test_derived_sizes(self):
        cfg = OfdmConfig(n_subcarriers=64, cp_len=7, symbols_per_block=500, num_blocks=5)
        assert cfg.symbol_len == 71
        assert cfg.block_len == 35500
        assert cfg.stream_len == 177500

    @pytest.mark.parametrize("field,value", [
        ("n_subcarriers", 1),
        ("cp_len", 0),
        ("symbols_per_block", 0),
        ("num_blocks", 0),
        ("mod_order", 8),
        ("mod_order", 32),
    ])
    def test_invalid_values_rejected(self, field, value):
        base = dict(n_subcarriers=8, cp_len=3, symbols_per_block=4, num_blocks=2,
                    mod_order=4)
        base[field] = value
        with pytest.raises(ConfigError):
            OfdmConfig(**base)

    def test_cp_longer_than_symbol_rejected(self):
        with pytest.raises(ConfigError):
            OfdmConfig(n_subcarriers=4, cp_len=5, symbols_per_block=1, num_blocks=1)


class TestMapQam:
    """The Gray-ordered table that generate_stream indexes."""

    def test_qpsk_all_zero_bits(self):
        assert qam_constellation(4)[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_all_one_bits(self):
        assert qam_constellation(4)[3] == pytest.approx((-1 - 1j) / np.sqrt(2))

    def test_sixteen_qam_unit_power(self):
        # enumerating all 16 points, mean |.|^2 must be exactly 1
        points = qam_constellation(16)
        assert len(points) == 16
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mod", [4, 16, 64, 256])
    def test_unit_power_all_orders(self, mod):
        points = qam_constellation(mod)
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mod", [4, 16, 64, 256])
    def test_gray_adjacency_per_axis(self, mod):
        # sweeping one axis level to its neighbour flips exactly one bit
        points = qam_constellation(mod)
        half = int(np.log2(mod)) // 2
        side = 1 << half
        for axis in (points[::side].real, points[:side].imag):
            ordered = np.argsort(axis)
            for a, b in zip(ordered, ordered[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_constellation_points_distinct(self):
        points = qam_constellation(64)
        assert len(np.unique(np.round(points, 9))) == 64

    @pytest.mark.parametrize("mod", [4, 16, 64, 256])
    def test_table_bytes_pinned(self, mod):
        # integer levels and one IEEE division: no BLAS in the bytes
        digest = hashlib.sha256(qam_constellation(mod).tobytes()).hexdigest()
        assert digest == {
            4: "db860e05d78202f159e28f16fbe26c8e060fc8c65c4b872c8bb3f7fc5915071e",
            16: "76a51a7540737fc5fdeee017f325993c9c95afaf275dc32606e8f28c84ecd651",
            64: "1f1f21a0d8cae4f3366f29dc3cd762db6415b8d40951223fafcc74d5f5eb35b0",
            256: "21f399f9df65a60c614208d70c59fa1b500551471939d2be2a6e0e2f24115bd5",
        }[mod]


class TestSerializeBlock:
    """generate_stream serializes each CP block column by column."""

    def test_column_stacking(self):
        # every run of N+P samples is one symbol: CP, then N samples whose
        # unitary DFT lands on the constellation
        cfg = OfdmConfig(n_subcarriers=4, cp_len=1, symbols_per_block=3, num_blocks=2,
                         mod_order=16)
        symbols = generate_stream(cfg, 2).samples.reshape(5, 6, order="F")
        assert np.array_equal(symbols[0], symbols[4])
        assert on_constellation(np.fft.fft(symbols[1:], axis=0, norm="ortho"), 16)

    def test_single_column(self):
        cfg = OfdmConfig(n_subcarriers=8, cp_len=3, symbols_per_block=1, num_blocks=1)
        s = generate_stream(cfg, 3).samples
        assert np.array_equal(s[:3], s[8:])
        assert on_constellation(np.fft.fft(s[3:], norm="ortho"), 4)

    def test_length(self):
        cfg = OfdmConfig(n_subcarriers=64, cp_len=7, symbols_per_block=500, num_blocks=1)
        assert len(generate_stream(cfg, 2)) == 35500


class TestGenerateStream:
    def test_deterministic(self):
        cfg = appendix_cfg()
        a = generate_stream(cfg, 123)
        b = generate_stream(cfg, 123)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_stream(self):
        cfg = appendix_cfg()
        a = generate_stream(cfg, 1)
        b = generate_stream(cfg, 2)
        assert not np.array_equal(a.samples, b.samples)

    def test_appendix_length(self):
        assert len(generate_stream(appendix_cfg(), 0)) == 16

    def test_mean_power_near_unity(self):
        cfg = OfdmConfig(n_subcarriers=32, cp_len=7, symbols_per_block=200,
                         num_blocks=2, mod_order=16)
        s = generate_stream(cfg, 5)
        assert np.mean(np.abs(s.samples) ** 2) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("seed", range(4))
    def test_cp_consistency_in_stream(self, seed):
        # within every symbol window, sample i equals sample i+N for i < P
        cfg = OfdmConfig(n_subcarriers=8, cp_len=3, symbols_per_block=4, num_blocks=2)
        s = generate_stream(cfg, seed).samples
        win = cfg.symbol_len
        for start in range(0, len(s), win):
            for i in range(cfg.cp_len):
                assert s[start + i] == s[start + i + cfg.n_subcarriers]

    def test_two_point_prefix_layout(self):
        # N = P = 2: the full-length CP repeats each symbol, [a, b, a, b]
        cfg = OfdmConfig(n_subcarriers=2, cp_len=2, symbols_per_block=3, num_blocks=2)
        symbols = generate_stream(cfg, 4).samples.reshape(-1, 4)
        assert np.array_equal(symbols[:, :2], symbols[:, 2:])
        assert on_constellation(np.fft.fft(symbols[:, 2:], axis=1, norm="ortho"), 4)

    def test_callers_samples_stay_writeable(self):
        x = np.zeros(4, dtype=complex)
        seq = IqSequence(samples=x)
        x[0] = 1.0
        assert not seq.samples.flags.writeable
        with pytest.raises(ValueError):
            seq.samples[0] = 2.0


class TestIqFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.iq"
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        count = write_iq_file(path, samples)
        assert count == 50
        back = read_iq_file(path)
        # float32 quantization on the way out
        assert np.max(np.abs(back - samples)) < 1e-6
        assert path.stat().st_size == 50 * 8

    def test_odd_float_count_rejected(self, tmp_path):
        path = tmp_path / "bad.iq"
        np.zeros(5, dtype="<f4").tofile(path)
        with pytest.raises(DataError):
            read_iq_file(path)

    @pytest.mark.parametrize("big", [complex(1e39, 0), complex(0, -4e38)])
    def test_part_beyond_complex64_rejected(self, tmp_path, big):
        # it would be stored as an infinite part
        path = tmp_path / "big.iq"
        with pytest.raises(DataError, match="complex64"):
            write_iq_file(path, np.array([1.0, big, complex(np.inf, 0)]))
        assert not path.exists()

    def test_non_finite_parts_round_trip(self, tmp_path):
        # each part is stored on its own, so a non-finite or signed-zero
        # part comes back bit for bit and leaves the other part alone
        path = tmp_path / "odd.iq"
        samples = np.array([complex(1, np.inf), complex(2, np.nan),
                            complex(np.inf, 1), complex(3, -0.0)])
        write_iq_file(path, samples)
        back = read_iq_file(path)
        assert back.view(np.float64).tobytes() == samples.view(np.float64).tobytes()
