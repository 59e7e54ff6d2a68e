import dataclasses
import math

import numpy as np
import pytest

import oracles
from sealoss import (
    DegenerateFit,
    ErrorReport,
    LengthMismatch,
    LogDistanceParams,
    ModelContext,
    SampleSet,
    bin_samples,
    compare_models,
    fit_log_distance,
    free_space_loss,
    log_distance_loss,
    mae,
    rmse,
)
from sealoss.models import distance_grid

F = 869.5e6


def synth_samples(params: LogDistanceParams, grid, noise=None):
    losses = [log_distance_loss(d, params) for d in grid]
    if noise is not None:
        losses = [l + e for l, e in zip(losses, noise)]
    return SampleSet(grid, losses)


class TestFitLogDistance:
    def test_noiseless_recovery(self):
        truth = LogDistanceParams(n=4.0, l_p0=80.0, d_0=100.0)
        fit = fit_log_distance(synth_samples(truth, distance_grid(120.0, 9000.0, 50, "log")), 100.0)
        assert fit.n == pytest.approx(4.0, abs=1e-9)
        assert fit.l_p0 == pytest.approx(80.0, abs=1e-9)

    def test_free_space_samples_give_n2(self):
        grid = distance_grid(50.0, 8000.0, 80, "log")
        samples = SampleSet(grid, [free_space_loss(d, F) for d in grid])
        fit = fit_log_distance(samples, 100.0)
        assert fit.n == pytest.approx(2.0, abs=1e-9)
        assert fit.l_p0 == pytest.approx(free_space_loss(100.0, F), abs=1e-9)

    def test_noisy_fit_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        grid = distance_grid(120.0, 9000.0, 300, "log")
        truth = LogDistanceParams(n=3.7, l_p0=92.0, d_0=100.0)
        samples = synth_samples(truth, grid, rng.normal(0.0, 3.0, len(grid)))
        fit = fit_log_distance(samples, 100.0)
        slope, intercept, se = oracles.normal_equations_fit(samples.distances, samples.losses, 100.0)
        assert fit.n == pytest.approx(slope, abs=1e-10)
        assert fit.l_p0 == pytest.approx(intercept, abs=1e-9)
        assert abs(fit.n - truth.n) < 3.0 * se

    def test_reorder_invariance(self):
        rng = np.random.default_rng(22)
        grid = distance_grid(120.0, 9000.0, 60, "log")
        truth = LogDistanceParams(n=3.1, l_p0=85.0, d_0=100.0)
        samples = synth_samples(truth, grid, rng.normal(0.0, 2.0, len(grid)))
        shuffled = list(zip(samples.distances, samples.losses))
        rng.shuffle(shuffled)
        fit_a = fit_log_distance(samples, 100.0)
        fit_b = fit_log_distance(SampleSet([d for d, _ in shuffled], [l for _, l in shuffled]), 100.0)
        assert fit_a.n == pytest.approx(fit_b.n, abs=1e-12)

    def test_reference_rescale_identity(self):
        rng = np.random.default_rng(23)
        grid = distance_grid(120.0, 9000.0, 60, "log")
        truth = LogDistanceParams(n=3.1, l_p0=85.0, d_0=100.0)
        samples = synth_samples(truth, grid, rng.normal(0.0, 2.0, len(grid)))
        f100 = fit_log_distance(samples, 100.0)
        f250 = fit_log_distance(samples, 250.0)
        assert f250.n == pytest.approx(f100.n, abs=1e-9)
        assert f250.l_p0 - f100.l_p0 == pytest.approx(
            10.0 * f100.n * math.log10(250.0 / 100.0), abs=1e-9
        )

    def test_degenerate_fit(self):
        samples = SampleSet([100.0, 100.0, 100.0], [80.0, 82.0, 85.0])
        with pytest.raises(DegenerateFit):
            fit_log_distance(samples, 100.0)
        with pytest.raises(DegenerateFit):
            fit_log_distance(SampleSet([100.0], [80.0]), 100.0)


class TestMetrics:
    def test_identical_vectors(self):
        v = [100.0, 104.5, 99.1]
        assert rmse(v, v) == 0.0
        assert mae(v, v) == 0.0

    def test_constant_offset(self):
        assert rmse([100.0, 102.0], [101.0, 103.0]) == pytest.approx(1.0, abs=1e-15)
        assert mae([100.0, 102.0], [101.0, 103.0]) == pytest.approx(1.0, abs=1e-15)

    def test_signed_cancellation_distinction(self):
        assert mae([100.0, 100.0], [101.0, 99.0]) == pytest.approx(1.0)
        assert float(np.mean(np.array([100.0, 100.0]) - np.array([101.0, 99.0]))) == 0.0

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(31)
        p = rng.normal(100.0, 10.0, 100)
        m = rng.normal(100.0, 10.0, 100)
        assert rmse(p, m) == pytest.approx(oracles.rmse_two_pass(p, m), abs=1e-12)
        assert mae(p, m) == pytest.approx(oracles.mae_two_pass(p, m), abs=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = rng.integers(1, 40)
            p = rng.normal(0.0, 5.0, n)
            m = rng.normal(0.0, 5.0, n)
            assert mae(p, m) <= rmse(p, m) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            mae([], [])

    def test_error_report_enforces_rms_mean_inequality(self):
        with pytest.raises(ValueError):
            ErrorReport(model_id="x", rmse=1.0, mae=2.0, n_samples=3)
        with pytest.raises(ValueError):
            ErrorReport(model_id="x", rmse=1.0, mae=0.5, n_samples=0)


class TestCompareModels:
    def ctx(self, **kw):
        return ModelContext(h_t=0.35, h_r=5.2, frequency=F, **kw)

    def test_self_consistency_free_space(self):
        grid = distance_grid(100.0, 9000.0, 50, "log")
        samples = SampleSet(grid, [free_space_loss(d, F) for d in grid])
        reports = compare_models(samples, ["bullington", "free-space", "itu"], self.ctx())
        assert reports[0].model_id == "free-space"
        assert reports[0].rmse == 0.0

    def test_ols_beats_fixed_models_on_its_own_family(self):
        grid = distance_grid(150.0, 9000.0, 80, "log")
        truth = LogDistanceParams(n=4.0, l_p0=76.0, d_0=100.0)
        samples = synth_samples(truth, grid)
        fitted = fit_log_distance(samples, 100.0)
        reports = compare_models(
            samples,
            ["free-space", "two-ray-flat", "bullington", "itu", "log-distance"],
            self.ctx(log_distance=fitted),
        )
        best = reports[0]
        assert best.model_id == "log-distance"
        assert all(best.rmse <= r.rmse for r in reports)

    def test_exclusion_counting_beyond_horizon(self):
        grid = [5000.0, 9000.0, 11_000.0, 12_000.0]
        samples = SampleSet(grid, [140.0, 150.0, 160.0, 165.0])
        reports = compare_models(samples, ["two-ray-round", "free-space"], self.ctx())
        by_id = {r.model_id: r for r in reports}
        assert by_id["two-ray-round"].n_samples == 2
        assert by_id["two-ray-round"].n_excluded == 2
        assert by_id["free-space"].n_excluded == 0

    def test_tie_breaks_on_model_id(self):
        # at the reference distance the n = 2 parameterisation reproduces
        # free space bit-exactly, forcing an exact RMSE tie
        samples = SampleSet([100.0, 100.0], [free_space_loss(100.0, F)] * 2)
        params = LogDistanceParams(n=2.0, l_p0=free_space_loss(100.0, F), d_0=100.0)
        reports = compare_models(samples, ["log-distance", "free-space"], self.ctx(log_distance=params))
        assert reports[0].rmse == reports[1].rmse == 0.0
        assert [r.model_id for r in reports] == ["free-space", "log-distance"]

    def test_requires_samples_and_models(self):
        grid = [100.0]
        samples = SampleSet(grid, [70.0])
        with pytest.raises(ValueError):
            compare_models(samples, [], self.ctx())


class TestBinning:
    def test_bin_means(self):
        samples = SampleSet([100.0, 110.0, 1000.0, 1100.0], [80.0, 82.0, 120.0, 122.0])
        binned = bin_samples(samples, 2)
        assert len(binned) == 2
        assert binned.distances.tolist() == pytest.approx([105.0, 1050.0])
        assert binned.losses.tolist() == pytest.approx([81.0, 121.0])

    def test_nearest_sample_kept_when_the_first_edge_rounds_above_it(self):
        # 10**log10(d) rounds above d for this distance, so the first edge does too
        samples = SampleSet([99.99759753149395, 500.0, 3000.0], [70.0, 90.0, 110.0])
        one = bin_samples(samples, 1)
        assert one.distances.tolist() == [samples.distances.mean()]
        assert one.losses.tolist() == [90.0]
        assert len(bin_samples(samples, 3)) == 3

    def test_empty_bins_dropped(self):
        samples = SampleSet([100.0, 10_000.0], [80.0, 140.0])
        binned = bin_samples(samples, 10)
        assert len(binned) == 2


class TestSampleSet:
    def test_read_only_arrays(self):
        distances = np.array([100.0, 250.5, 1000.0])
        samples = SampleSet(distances, [80.0, 91.25, -0.0])
        assert samples.distances.tolist() == [100.0, 250.5, 1000.0] and len(samples) == 3
        assert samples.losses.tolist() == [80.0, 91.25, -0.0]
        distances[0] = 1.0  # the set holds its own copy
        assert samples.distances[0] == 100.0 and samples.losses.dtype == np.float64
        assert not samples.distances.flags.writeable and not samples.losses.flags.writeable
        moved = dataclasses.replace(samples, losses=[1.0, 2.0, 3.0])
        assert moved.distances.tolist() == [100.0, 250.5, 1000.0] and moved.losses.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            samples.distances = distances
        with pytest.raises(LengthMismatch):
            SampleSet(distances, [80.0])

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            SampleSet([100.0, 0.0], [80.0, 81.0])
        with pytest.raises(ValueError):
            SampleSet([100.0, -1.0], [80.0, 81.0])
