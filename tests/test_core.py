import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oversmooth
from oversmooth.core import (
    Adam,
    Alignment,
    AlignmentEntry,
    ContractError,
    SeededRng,
    Spectrogram,
    read_alignment,
    read_mel,
    write_mel,
)


class TestSpectrogram:
    def test_shape_properties(self):
        spec = Spectrogram(np.zeros((4, 3)))
        assert spec.frames == 4
        assert spec.bins == 3

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            Spectrogram(np.array([[0.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            Spectrogram(np.zeros((0, 3)))

    def test_values_read_only(self):
        spec = Spectrogram(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            spec.values[0, 0] = 1.0


class TestMelFile:
    def test_single_cell_roundtrip(self, tmp_path):
        path = tmp_path / "one.mel"
        write_mel(Spectrogram(np.array([[0.0]])), path)
        data = path.read_bytes()
        assert data[:4] == b"MEL1"
        assert len(data) == 16  # 12-byte header + one float32
        back = read_mel(path)
        assert back.values.shape == (1, 1)
        assert back.values[0, 0] == 0.0

    def test_2x3_roundtrip(self, tmp_path):
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "grid.mel"
        write_mel(Spectrogram(values), path)
        assert np.array_equal(read_mel(path).values, values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mel"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ContractError, match="expected magic"):
            read_mel(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.mel"
        write_mel(Spectrogram(np.zeros((2, 2))), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ContractError,
                           match="payload is 12 bytes, header implies 16"):
            read_mel(path)

    def test_value_beyond_float32_rejected_before_writing(self, tmp_path):
        path = tmp_path / "big.mel"
        values = np.zeros((2, 3))
        values[1, 2] = -1e39  # finite in float64, -inf in float32
        with pytest.raises(ContractError, match="finite in float32"):
            write_mel(Spectrogram(values), path)
        assert not path.exists()
        values[1, 2] = -float(np.finfo(np.float32).max)  # the bound itself
        write_mel(Spectrogram(values), path)
        assert read_mel(path).values[1, 2] == values[1, 2]

    def test_nan_payload(self, tmp_path):
        path = tmp_path / "nan.mel"
        import struct

        payload = struct.pack("<f", float("nan"))
        path.write_bytes(b"MEL1" + struct.pack("<II", 1, 1) + payload)
        with pytest.raises(ContractError, match="non-finite"):
            read_mel(path)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.integers(1, 8),
        f=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_identity_property(self, t, f, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(t, f)).astype(np.float32)
        path = tmp_path_factory.mktemp("mel") / "p.mel"
        write_mel(Spectrogram(values), path)
        assert np.array_equal(read_mel(path).values, values.astype(np.float64))

    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(0, 10**4), extra=st.binary(min_size=1, max_size=9),
           magic=st.binary(min_size=4, max_size=4))
    def test_malformed_files_are_contract_errors(self, cut, extra, magic,
                                                 tmp_path_factory):
        path = tmp_path_factory.mktemp("mel") / "m.mel"
        write_mel(Spectrogram(np.ones((3, 5))), path)
        data = path.read_bytes()
        variants = [data[: cut % len(data)], data + extra]
        if magic != b"MEL1":
            variants.append(magic + data[4:])
        for variant in variants:
            path.write_bytes(variant)
            with pytest.raises(ContractError):
                read_mel(path)

    def test_zero_dimension_header(self, tmp_path):
        path = tmp_path / "empty.mel"
        path.write_bytes(b"MEL1" + b"\x00" * 8)
        with pytest.raises(ContractError, match="invalid dimensions 0x0"):
            read_mel(path)


class TestAlignment:
    def test_parse(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("AE2\t0\t12\nR\t12\t20\n")
        align = read_alignment(path)
        assert len(align.entries) == 2
        assert align.spans("AE2") == [(0, 12)]
        assert align.spans("R") == [(12, 20)]

    def test_empty_span(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("R\t5\t5\n")
        with pytest.raises(ContractError, match=r"empty span for 'R': \[5, 5\)"):
            read_alignment(path)

    def test_overlap(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("A\t0\t4\nB\t3\t6\n")
        with pytest.raises(ContractError, match="overlapping span for 'B'"):
            read_alignment(path)

    def test_non_integer_fields(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("A\t0\tx\n")
        with pytest.raises(ContractError, match="frame fields must be integers"):
            read_alignment(path)


def test_contract_error_is_the_one_error_type():
    for module in pkgutil.iter_modules(oversmooth.__path__):
        importlib.import_module(f"oversmooth.{module.name}")
    assert ContractError.__subclasses__() == []


class TestSeededRng:
    def test_draws_those_of_the_keyed_philox_generator(self):
        rng = SeededRng(123, 5)
        plain = np.random.Generator(np.random.Philox(key=(5 << 64) | 123))
        assert np.array_equal(rng.uniform(size=64), plain.uniform(size=64))
        assert np.array_equal(rng.integers(0, 9, size=64),
                              plain.integers(0, 9, size=64))

    def test_equal_streams_replay(self):
        a = SeededRng(123, 5).uniform(size=10_000)
        b = SeededRng(123, 5).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ_early(self):
        base = np.random.default_rng(0)
        for _ in range(50):
            seed = int(base.integers(0, 2**63))
            s1, s2 = (int(v) for v in base.integers(0, 2**63, size=2))
            if s1 == s2:
                continue
            a = SeededRng(seed, s1).uniform(size=16)
            b = SeededRng(seed, s2).uniform(size=16)
            assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = SeededRng(7).substream(3).normal(size=5)
        b = SeededRng(7).substream(3).normal(size=5)
        assert np.array_equal(a, b)

    def test_substream_differs_from_parent(self):
        parent = SeededRng(7)
        child = parent.substream(0)
        assert child.stream != parent.stream
        assert not np.array_equal(SeededRng(7).uniform(size=8),
                                  child.uniform(size=8))


class FixedUniforms(SeededRng):
    """A stream whose uniforms are given, to place them on cdf steps."""

    def __init__(self, u):
        super().__init__(0)
        self.u = np.asarray(u, dtype=np.float64)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.u.reshape(size)


def categorical_1d_oracle(rng, weights, count):
    # The inline draw the toy-lab strategies used before SeededRng.categorical.
    cum = np.cumsum(weights)
    u = rng.uniform(size=count)
    return np.minimum((u[:, None] >= cum[None, :]).sum(axis=1), len(cum) - 1)


def categorical_cells_oracle(rng, pi, count):
    # The inline draw of probloss.lm_sample_stack before the merge.
    t, f, k = pi.shape
    u_comp = rng.uniform(size=(count, t, f))
    cdf = np.cumsum(pi, axis=-1)
    return np.minimum((u_comp[..., None] >= cdf).sum(axis=-1), k - 1)


class TestCategorical:
    def test_1d_weights_match_the_inline_draw(self):
        for seed in range(20):
            weights = np.random.default_rng(seed).dirichlet(np.ones(1 + seed % 5))
            got = SeededRng(seed, 3).categorical(weights, 500)
            want = categorical_1d_oracle(SeededRng(seed, 3), weights, 500)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_cell_weights_match_the_inline_draw(self):
        pi = np.random.default_rng(1).dirichlet(np.ones(3), size=(4, 5))
        got = SeededRng(2).categorical(pi, (50, 4, 5))
        assert got.shape == (50, 4, 5)
        assert np.array_equal(got, categorical_cells_oracle(SeededRng(2), pi, 50))

    def test_uniform_on_a_step_picks_the_next_index(self):
        weights = (0.25, 0.25, 0.5)
        u = [0.0, 0.25, np.nextafter(0.25, 0), 0.5, 0.75]
        got = FixedUniforms(u).categorical(weights, 5)
        assert got.tolist() == [0, 1, 0, 2, 2]
        assert np.array_equal(got, categorical_1d_oracle(FixedUniforms(u),
                                                         weights, 5))

    def test_zero_weight_is_never_picked(self):
        weights = (0.5, 0.0, 0.5)
        u = [0.0, 0.5, np.nextafter(0.5, 0), 0.999]
        assert FixedUniforms(u).categorical(weights, 4).tolist() == [0, 2, 0, 2]
        draws = SeededRng(4).categorical(weights, 10_000)
        assert 1 not in draws

    def test_cdf_below_one_clamps_to_the_last_index(self):
        weights = [0.1] * 10
        assert np.cumsum(weights)[-1] < 1.0
        u = [np.nextafter(1.0, 0), 0.99999999999999995]
        got = FixedUniforms(u).categorical(weights, 2)
        assert got.tolist() == [9, 9]
        pi = np.full((2, 1, 10), 0.1)
        cells = FixedUniforms(np.full(4, np.nextafter(1.0, 0))).categorical(
            pi, (2, 2, 1))
        assert np.all(cells == 9)


class TestAdam:
    def test_bit_identical_to_the_inline_flow_update(self):
        rng = np.random.default_rng(5)
        target = rng.normal(size=40) * np.logspace(-3, 3, 40)
        ref = rng.normal(size=40)
        theta = ref.copy()  # the step updates theta in place
        adam = Adam(theta.size, 2e-3)
        # The update train_flow wrote inline before the class existed.
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        beta1, beta2, eps, step_size = 0.9, 0.999, 1e-8, 2e-3
        for it in range(1, 51):
            noise = rng.normal(size=40)
            adam.step(theta, theta - target + noise)
            g = ref - target + noise
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**it)
            v_hat = v / (1 - beta2**it)
            ref = ref - step_size * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(theta, ref)
