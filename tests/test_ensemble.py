import math
import os

import numpy as np
import pytest

from jcentropy.ensemble import (
    BetaEnsembleSpec,
    RejectionOverflowError,
    SplitMix64,
    load_betas,
    sample_betas,
    save_betas,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestSplitMix64:
    def test_reference_vectors(self):
        # published SplitMix64 outputs for seed 0
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(99)
        values = [rng.uniform() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        rng = SplitMix64(99)
        assert all(0.0 < rng.uniform_pos() <= 1.0 for _ in range(2000))


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        spec = BetaEnsembleSpec(shape="normal", count=50, seed=123)
        assert sample_betas(spec).betas == sample_betas(spec).betas

    def test_seed_changes_stream(self):
        a = sample_betas(BetaEnsembleSpec(shape="normal", count=50, seed=1))
        b = sample_betas(BetaEnsembleSpec(shape="normal", count=50, seed=2))
        assert a.betas != b.betas

    def test_normal_sample_mean(self):
        omega = 2.0
        spec = BetaEnsembleSpec(shape="normal", count=10**5, seed=7, omega=omega)
        betas = np.array(sample_betas(spec).betas)
        se = 0.3 / math.sqrt(spec.count)
        assert abs(betas.mean() - 3.0 / omega) < 3.0 * se / omega

    def test_weibull_positive_and_mean_matched(self):
        spec = BetaEnsembleSpec(shape="weibull", count=10**5, seed=11)
        betas = np.array(sample_betas(spec).betas)
        assert np.all(betas > 0.0)
        scale = spec.effective_scale
        var = scale**2 * (math.gamma(2.0) - math.gamma(1.5) ** 2)
        se = math.sqrt(var / spec.count)
        assert abs(betas.mean() - 3.0) < 3.0 * se

    def test_weibull_default_scale_matches_mean(self):
        spec = BetaEnsembleSpec(shape="weibull", count=1, seed=0)
        assert spec.effective_scale == pytest.approx(3.0 / math.gamma(1.5), rel=1e-15)

    def test_rejection_overflow(self):
        spec = BetaEnsembleSpec(shape="normal", count=1, seed=0, mean=-60.0, sd=0.5)
        with pytest.raises(RejectionOverflowError):
            sample_betas(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BetaEnsembleSpec(shape="poisson", count=5, seed=0)
        with pytest.raises(ValueError):
            BetaEnsembleSpec(shape="normal", count=0, seed=0)
        with pytest.raises(ValueError):
            BetaEnsembleSpec(shape="normal", count=5, seed=0, sd=-1.0)

    @pytest.mark.parametrize("name", ["mean", "sd", "scale", "shape_param"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_spec_refuses_non_finite_parameters(self, name, value):
        # whichever shape reads the parameter: a betas-file header records them all
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            BetaEnsembleSpec(shape="normal", count=5, seed=0, **{name: value})


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path):
        spec = BetaEnsembleSpec(shape="weibull", count=64, seed=5, omega=1.5)
        model = sample_betas(spec)
        path = tmp_path / "betas.txt"
        save_betas(path, model, spec)
        loaded, loaded_spec = load_betas(path)
        assert loaded.betas == model.betas
        assert loaded.omega == model.omega
        assert loaded_spec == spec

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        spec = BetaEnsembleSpec(shape="normal", count=200, seed=3)
        path = tmp_path / "betas.txt"
        save_betas(path, sample_betas(BetaEnsembleSpec(shape="normal", count=4, seed=1)))
        before = path.read_bytes()
        real_fdopen = os.fdopen

        class HalfWriter:
            """File wrapper that writes half its text, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: HalfWriter(real_fdopen(*a, **kw)))
        with pytest.raises(OSError):
            save_betas(path, sample_betas(spec), spec)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["betas.txt"]

    def test_negative_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('# {"omega": 1.0, "count": 2, "spec": null}\n1.5\n-2.0\n')
        with pytest.raises(ValueError, match=r":3:.*positive"):
            load_betas(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_betas(path)

    def test_garbled_value_names_the_line(self, tmp_path):
        path = tmp_path / "garbled.txt"
        path.write_text('# {"omega": 1.0, "count": 1, "spec": null}\nnot-a-number\n')
        with pytest.raises(ValueError, match=r":2:"):
            load_betas(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text('# {"omega": 1.0, "count": 3, "spec": null}\n1.0\n')
        with pytest.raises(ValueError, match="declares 3"):
            load_betas(path)

    def test_committed_reference_ensemble(self):
        model, spec = load_betas(os.path.join(DATA_DIR, "normal_n100.betas"))
        assert len(model.betas) == 100
        assert spec is not None and spec.count == 100
        assert all(b > 0 for b in model.betas)
