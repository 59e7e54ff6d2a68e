import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sealoss import (
    AntennaTooHigh,
    BullingtonValidityWarning,
    ConfigError,
    EarthModel,
    FrequencyOutOfRange,
    ItuParams,
    LinkGeometry,
    LogDistanceParams,
    MODEL_IDS,
    ModelContext,
    ModelCurve,
    NoCoverage,
    NumericalFailure,
    Polarization,
    RadioConfig,
    SampleSet,
    SeaLossError,
    SeaState,
    UnboundedRange,
    UnsupportedTimePercentage,
    compare_models,
    critical_distance,
    effective_reflection_at,
    evaluate_model,
    fit_log_distance,
    free_space_loss,
    fresnel60_distance,
    fresnel_reflection,
    horizon_distance,
    log_distance_loss,
    losses,
    max_range,
    smooth_earth_diffraction_loss,
    specular_points,
    sweep,
    wavelength,
)
from sealoss.errors import OK, REASONS, ZERO_FIELD
from sealoss.models import _two_ray_db, _two_ray_flat, distance_grid

F = 869.5e6
LAMBDA = wavelength(F)
CTX = ModelContext(h_t=0.35, h_r=5.2, frequency=F)


class TestFreeSpace:
    def test_zero_at_unit_log_argument(self):
        assert free_space_loss(LAMBDA / (4.0 * math.pi), F) == pytest.approx(0.0, abs=1e-12)

    def test_one_km(self):
        assert free_space_loss(1000.0, F) == pytest.approx(91.2332, abs=0.01)

    def test_doubling_distance(self):
        assert free_space_loss(2000.0, F) - free_space_loss(1000.0, F) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-12
        )


class TestTwoRayFlat:
    def test_zero_reflection_degenerates_to_free_space(self):
        for d in (10.0, 137.0, 5000.0):
            l = math.hypot(d, 0.35 - 5.2)
            [loss], _ = _two_ray_flat(np.array([d]), 0.35, 5.2, F, reflection=0.0)
            assert loss == pytest.approx(free_space_loss(l, F), abs=1e-12)

    def test_far_field_asymptote(self):
        loss = evaluate_model("two-ray-flat", CTX, 5000.0)
        asym = 40.0 * math.log10(5000.0) - 20.0 * math.log10(0.35 * 5.2)
        assert asym == pytest.approx(142.757, abs=1e-3)
        assert abs(loss - asym) < 0.5

    def test_null_positions_match_analytic_solution(self):
        # nulls of R = -1 where the path difference is a whole wavelength;
        # for equal heights sqrt(d^2 + 4h^2) - d = m lambda solves exactly to
        # d = (4 h^2 - m^2 lambda^2) / (2 m lambda), which the usual
        # d ~ 2 h_t h_r / (m lambda) approximates to O((h/d)^2)
        h = 2.0
        for m in (1, 2, 3):
            d_exact = (4.0 * h * h - (m * LAMBDA) ** 2) / (2.0 * m * LAMBDA)
            d_approx = 2.0 * h * h / (m * LAMBDA)
            assert abs(d_exact - d_approx) / d_approx < 0.035 * m
            grid = np.linspace(0.95 * d_exact, 1.05 * d_exact, 8001)
            loss, _ = losses("two-ray-flat", ModelContext(h_t=h, h_r=h, frequency=F), grid)
            d_found = grid[int(np.argmax(loss))]
            assert abs(d_found - d_exact) / d_exact < 0.002

    def test_oscillation_envelope_below_critical(self):
        d_c = critical_distance(LinkGeometry(0.35, 5.2, 1.0), LAMBDA)
        crossings = 0
        prev_sign = None
        grid = np.linspace(1.0, d_c, 2000)
        for d, loss in zip(grid, losses("two-ray-flat", CTX, grid)[0]):
            l = math.hypot(d, 0.35 - 5.2)
            rel = loss - free_space_loss(l, F)
            assert rel > -6.03  # coherent-sum lower bound: at most +6 dB of signal
            sign = rel > 0
            if prev_sign is not None and sign != prev_sign:
                crossings += 1
            prev_sign = sign
        assert crossings >= 2

    def test_asymptote_band_beyond_ten_critical(self):
        g = LinkGeometry(0.35, 5.2, 1.0)
        d_c = critical_distance(g, LAMBDA)
        d_h = horizon_distance(g)
        for d in distance_grid(10.0 * d_c, d_h, 100, "log"):
            asym = 40.0 * math.log10(d) - 20.0 * math.log10(0.35 * 5.2)
            assert abs(evaluate_model("two-ray-flat", CTX, d) - asym) < 3.0


class TestTwoRayZeroField:
    # far out r - l rounds to exactly 0 for these low antennas, so with R = -1
    # the field sum cancels; that is a NumericalFailure, not a bare ValueError
    CTX = ModelContext(h_t=0.015, h_r=0.017, frequency=250e6)

    def test_evaluate_model_raises_sealoss_error(self):
        with pytest.raises(NumericalFailure, match="cancels to zero"):
            evaluate_model("two-ray-flat", self.CTX, 2.2e6)
        with pytest.raises(NumericalFailure):
            evaluate_model("two-ray-flat", self.CTX, 2.25e6)

    def test_sweep_skips_the_points(self):
        curve = sweep("two-ray-flat", self.CTX, 2.2e6, 2.25e6, 20)
        assert curve.distances.tolist() == []
        assert len(curve.skipped) == 20
        assert all(reason.startswith("NumericalFailure: ") for _, reason in curve.skipped)


class TestTwoRayRoundEarth:
    def test_zero_reflection_is_free_space_over_direct_ray(self):
        rg, _ = specular_points(LinkGeometry(0.35, 5.2, 4000.0))
        expected = free_space_loss(rg.l, F)
        loss, _ = _two_ray_db(rg.l, rg.x + rg.x_prime, 0.0, F)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_flat_limit_matches_plane_earth(self):
        big = EarthModel(effective_radius_factor=1e9)
        d = np.array([50.0, 500.0, 5000.0])
        rg, _ = specular_points(LinkGeometry(0.35, 5.2, d, big))
        loss, _ = _two_ray_db(rg.l, rg.x + rg.x_prime, -1.0, F)
        assert loss == pytest.approx(losses("two-ray-flat", CTX, d)[0], abs=1e-4)

    def test_recomputation_from_exact_sphere_oracle(self):
        # campaign-1 geometry at 1 km: rebuild the ray lengths from the
        # exact-sphere specular point and evaluate the two-ray sum directly
        r_e = 6_371_000.0
        h_t, h_r, d = 0.35, 2.65, 1000.0
        g = LinkGeometry(h_t, h_r, d)
        [r_eff] = effective_reflection_at(specular_points(g)[0], g, F, SeaState()).value

        x_g = oracles.specular_ground_distance(h_t, h_r, d, r_e)
        a, theta = x_g / r_e, d / r_e

        def leg(h, radius, ang):
            return math.sqrt(h * h + 4.0 * r_e * radius * math.sin(ang / 2.0) ** 2)

        lt = leg(h_t, r_e + h_t, a)
        lr = leg(h_r, r_e + h_r, theta - a)
        chord_sq = (h_t - h_r) ** 2 + 4.0 * (r_e + h_t) * (r_e + h_r) * math.sin(theta / 2.0) ** 2
        l_direct = math.sqrt(chord_sq)
        field = 1.0 / l_direct + r_eff * cmath.exp(
            1j * 2.0 * math.pi * (lt + lr - l_direct) / LAMBDA
        ) / (lt + lr)
        expected = 20.0 * math.log10(4.0 * math.pi / LAMBDA) - 20.0 * math.log10(abs(field))

        ctx = ModelContext(h_t=h_t, h_r=h_r, frequency=F, sea=SeaState())
        assert evaluate_model("two-ray-round", ctx, d) == pytest.approx(expected, abs=1e-3)


class TestSmoothEarthDiffraction:
    def test_regression_values_at_horizon(self):
        # direct evaluation of the first-term residue series, frozen
        g1 = LinkGeometry(0.35, 2.65, 7922.676854706286)
        g2 = LinkGeometry(0.35, 5.2, 10251.723652044815)
        assert smooth_earth_diffraction_loss(g1, F) == pytest.approx(44.3667, abs=1e-3)
        assert smooth_earth_diffraction_loss(g2, F) == pytest.approx(41.5945, abs=1e-3)

    def test_floor_at_short_range(self):
        assert smooth_earth_diffraction_loss(LinkGeometry(0.35, 5.2, 100.0), F) == 0.0
        assert smooth_earth_diffraction_loss(LinkGeometry(0.35, 5.2, 300.0), F) > 0.0

    def test_strictly_increasing_beyond_horizon(self):
        d_h = horizon_distance(LinkGeometry(0.35, 5.2, 1.0))
        vals = [
            smooth_earth_diffraction_loss(LinkGeometry(0.35, 5.2, d), F)
            for d in np.linspace(d_h, 3.0 * d_h, 40)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_far_shadow_grows_linearly_in_distance(self):
        vals = [
            smooth_earth_diffraction_loss(LinkGeometry(0.35, 5.2, d), F)
            for d in (30_000.0, 40_000.0, 50_000.0)
        ]
        d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
        assert d1 > 0 and d2 > 0
        assert abs(d2 - d1) < 0.15 * d1


class TestBullington:
    def test_identical_to_plane_earth_below_d60(self):
        g1 = LinkGeometry(0.35, 5.2, 1.0)
        d_60 = fresnel60_distance(g1, F)
        for d in (0.3 * d_60, 0.7 * d_60, d_60):
            assert evaluate_model("bullington", CTX, d) == evaluate_model("two-ray-flat", CTX, d)

    def test_antenna_ceiling_in_band(self):
        with pytest.raises(AntennaTooHigh):
            evaluate_model("bullington", ModelContext(h_t=0.35, h_r=16.0, frequency=F), 1000.0)

    def test_scaled_ceiling_warns_out_of_band(self):
        with pytest.warns(BullingtonValidityWarning):
            evaluate_model("bullington", ModelContext(h_t=0.35, h_r=12.0, frequency=2.4e9), 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = ModelContext(h_t=0.35, h_r=16.0, frequency=400e6)  # ceiling ~19.4 m there
            evaluate_model("bullington", ctx, 1000.0)

    def test_below_fitted_log_distance_at_long_range(self):
        # fit the straight line to plane-earth samples (the measured proxy);
        # the shadow bridge pulls the prediction slightly under it far out
        grid = distance_grid(500.0, 9500.0, 200, "log")
        samples = SampleSet(grid, losses("two-ray-flat", CTX, grid)[0])
        fit = fit_log_distance(samples, 100.0)
        far = distance_grid(5000.0, 9500.0, 50, "log")
        diffs = losses("bullington", CTX, far)[0] - log_distance_loss(far, fit)
        assert np.mean(diffs) < 0.0

    def test_zero_field_at_the_horizon_is_every_inside_point_reason(self):
        # On a near-flat earth the horizon is so far out that r - l rounds to
        # 0 there: the plane-earth field cancels and the shadow bridge has no
        # end value, so every point inside the horizon fails, none raises.
        flat = EarthModel(effective_radius_factor=1e9)
        ctx = ModelContext(h_t=0.35, h_r=5.2, frequency=F, earth=flat)
        loss, reasons = losses("bullington", ctx, [100.0, 1000.0, 10_000.0])
        assert reasons.tolist() == [ZERO_FIELD] * 3 and np.isnan(loss).all()
        with pytest.raises(NumericalFailure, match="^two-ray field sum cancels to zero at d = 1000.0 m$"):
            evaluate_model("bullington", ctx, 1000.0)

    def test_beyond_horizon_is_free_space_plus_diffraction(self):
        g = LinkGeometry(0.35, 5.2, 12_000.0)
        expected = free_space_loss(12_000.0, F) + smooth_earth_diffraction_loss(g, F)
        assert evaluate_model("bullington", CTX, 12_000.0) == pytest.approx(expected, abs=1e-12)


class TestRel:
    def test_component_audit(self):
        # rel must equal the round-earth two-ray plus the bridged correction
        sea = SeaState(sigma_h=0.05, beta_0=0.002)
        g1 = LinkGeometry(0.35, 5.2, 1.0)
        d_60 = fresnel60_distance(g1, F)
        d_h = horizon_distance(g1)
        end = smooth_earth_diffraction_loss(LinkGeometry(0.35, 5.2, d_h), F)
        ctx = ModelContext(h_t=0.35, h_r=5.2, frequency=F, sea=sea,
                           polarization=Polarization.CIRCULAR)
        for d in (800.0, 3000.0, 9000.0):
            base = evaluate_model("two-ray-round", ctx, d)
            frac = (math.log10(d) - math.log10(d_60)) / (math.log10(d_h) - math.log10(d_60))
            assert evaluate_model("rel", ctx, d) == pytest.approx(base + end * frac, abs=1e-9)

    def test_degenerates_to_plane_earth_with_fresnel_r(self):
        # flat-earth limit, smooth sea, inside the zero-correction region
        big = EarthModel(effective_radius_factor=1e9)
        calm = SeaState(sigma_h=0.0, beta_0=0.0)
        d = 50.0
        ctx = ModelContext(h_t=0.35, h_r=5.2, frequency=F, earth=big, sea=calm)
        psi = math.atan2(0.35 + 5.2, d)
        r = fresnel_reflection(psi, F, calm, Polarization.VERTICAL)
        [flat], _ = _two_ray_flat(np.array([d]), 0.35, 5.2, F, reflection=r)
        assert evaluate_model("rel", ctx, d) == pytest.approx(flat, abs=1e-3)

    def test_sanity_envelope_against_bullington(self, campaign1, campaign2):
        for cfg in (campaign1, campaign2):
            ctx = cfg.model_context()
            top = min(9800.0, 0.99 * horizon_distance(ctx.geometry_at(1.0)))
            for d in distance_grid(1000.0, top, 80, "log"):
                assert evaluate_model("rel", ctx, d) >= evaluate_model("bullington", ctx, d) - 6.0

    def test_mean_ordering_above_bullington(self, campaign1, campaign2):
        for cfg in (campaign1, campaign2):
            ctx = cfg.model_context()
            top = min(9500.0, 0.99 * horizon_distance(ctx.geometry_at(1.0)))
            grid = distance_grid(1000.0, top, 120, "log")
            diffs = losses("rel", ctx, grid)[0] - losses("bullington", ctx, grid)[0]
            assert np.mean(diffs) > 0.0

    def test_graceful_beyond_horizon(self):
        g = LinkGeometry(0.35, 5.2, 15_000.0)
        expected = free_space_loss(15_000.0, F) + smooth_earth_diffraction_loss(g, F)
        assert evaluate_model("rel", CTX, 15_000.0) == pytest.approx(expected, abs=1e-12)


class TestItuReduced:
    def test_short_range_near_free_space(self):
        assert evaluate_model("itu", CTX, 60.0) == pytest.approx(free_space_loss(60.0, F), abs=1.0)

    def test_within_band_of_bullington(self, campaign2):
        ctx = campaign2.model_context()
        grid = distance_grid(1000.0, 9800.0, 60, "log")
        itu, bull = losses("itu", ctx, grid)[0], losses("bullington", ctx, grid)[0]
        assert (abs(itu - bull) < 10.0).all()

    def test_monotone_beyond_critical(self):
        grid = distance_grid(30.0, 30_000.0, 300, "log")
        vals = [evaluate_model("itu", CTX, d) for d in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_frequency_range_enforced(self):
        with pytest.raises(FrequencyOutOfRange):
            evaluate_model("itu", ModelContext(h_t=0.35, h_r=5.2, frequency=20e6), 1000.0)
        with pytest.raises(FrequencyOutOfRange):
            evaluate_model("itu", ModelContext(h_t=0.35, h_r=5.2, frequency=60e9), 1000.0)

    def test_median_only(self):
        ctx = ModelContext(h_t=0.35, h_r=5.2, frequency=F, itu=ItuParams(time_percentage=10.0))
        with pytest.raises(UnsupportedTimePercentage):
            evaluate_model("itu", ctx, 1000.0)

    def test_uses_own_median_radius_factor(self):
        # the link's refraction factor must not leak into the ITU term
        d = 5000.0
        a = evaluate_model("itu", CTX, d)
        b = evaluate_model("itu", ModelContext(
            h_t=0.35, h_r=5.2, frequency=F, earth=EarthModel(effective_radius_factor=5.0)
        ), d)
        assert a == b
        c = evaluate_model("itu", ModelContext(
            h_t=0.35, h_r=5.2, frequency=F, itu=ItuParams(median_effective_radius_factor=1.0)
        ), d)
        assert c != a


class TestLogDistance:
    def test_reference_point(self):
        p = LogDistanceParams(n=3.3, l_p0=87.0, d_0=100.0)
        assert log_distance_loss(100.0, p) == 87.0

    def test_n2_with_free_space_reference_is_free_space(self):
        p = LogDistanceParams(n=2.0, l_p0=free_space_loss(100.0, F), d_0=100.0)
        for d in (10.0, 100.0, 5000.0):
            assert log_distance_loss(d, p) == pytest.approx(free_space_loss(d, F), abs=1e-9)

    def test_decade_slope(self):
        p = LogDistanceParams(n=4.0, l_p0=80.0, d_0=100.0)
        assert log_distance_loss(1000.0, p) - log_distance_loss(100.0, p) == pytest.approx(40.0)


class TestSweep:
    def ctx(self, **kw):
        return ModelContext(h_t=0.35, h_r=5.2, frequency=F, **kw)

    def test_two_points_endpoints_only(self):
        curve = sweep("free-space", self.ctx(), 100.0, 10_000.0, 2)
        assert curve.distances.tolist() == [100.0, 10_000.0]

    def test_log_spacing_geometric_midpoint(self):
        curve = sweep("free-space", self.ctx(), 100.0, 10_000.0, 3)
        assert curve.distances[1] == pytest.approx(1000.0, rel=1e-12)

    def test_pointwise_equivalence(self):
        curve = sweep("free-space", self.ctx(), 50.0, 5000.0, 40)
        for d, loss in zip(curve.distances, curve.losses):
            assert loss == free_space_loss(d, F)

    @pytest.mark.parametrize("model", ["two-ray-flat", "two-ray-round", "rel", "bullington", "itu"])
    def test_sweep_is_the_scalar_model_bit_for_bit(self, model):
        # one vectorized pass over the grid gives exactly what the scalar API
        # gives point by point, skip reasons included
        ctx = self.ctx(sea=SeaState(sigma_h=0.05, beta_0=0.002), polarization=Polarization.HORIZONTAL)
        curve = sweep(model, ctx, 10.0, 30_000.0, 60)
        for d, loss in zip(curve.distances, curve.losses):
            assert evaluate_model(model, ctx, d) == loss
        for d, reason in curve.skipped:
            with pytest.raises(SeaLossError) as err:
                evaluate_model(model, ctx, d)
            assert f"{type(err.value).__name__}: {err.value}" == reason

    def test_skipped_points_recorded(self):
        curve = sweep("two-ray-round", self.ctx(), 9000.0, 12_000.0, 10)
        assert curve.skipped
        assert all("NoSpecularPoint" in reason for _, reason in curve.skipped)
        assert len(curve.distances) + len(curve.skipped) == 10

    def test_linear_spacing(self):
        curve = sweep("free-space", self.ctx(), 100.0, 200.0, 3, spacing="linear")
        assert curve.distances.tolist() == [100.0, 150.0, 200.0]

    def test_log_distance_requires_params(self):
        with pytest.raises(ConfigError):
            sweep("log-distance", self.ctx(), 100.0, 200.0, 3)
        curve = sweep(
            "log-distance",
            self.ctx(log_distance=LogDistanceParams(n=2.0, l_p0=80.0, d_0=100.0)),
            100.0, 200.0, 3,
        )
        assert len(curve.distances) == 3

    def test_model_curve_validation(self):
        with pytest.raises(ValueError):
            ModelCurve("x", (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            ModelCurve("x", (1.0, 2.0), (0.0,))
        with pytest.raises(ValueError):
            ModelCurve("x", (1.0, 2.0), (0.0, math.inf))

    def test_curve_holds_read_only_arrays(self):
        curve = sweep("two-ray-round", self.ctx(), 9000.0, 12_000.0, 10)
        grid = np.asarray(distance_grid(9000.0, 12_000.0, 10))
        for a in (curve.distances, curve.losses):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable
        np.testing.assert_array_equal(curve.distances, grid[: len(curve.distances)])
        assert len(curve.losses) == len(curve.distances) == 10 - len(curve.skipped)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            evaluate_model("warp-drive", self.ctx(), 100.0)


class TestMaxRange:
    def ctx(self, **kw):
        return ModelContext(h_t=0.35, h_r=5.2, frequency=F, **kw)

    def radio(self, budget):
        # tx power against a 0 dBm sensitivity makes the budget explicit
        return RadioConfig(frequency=F, tx_power=budget, rx_sensitivity=0.0)

    def test_free_space_closed_form(self):
        # closed-form inversion: d = lambda/(4 pi) * 10^(budget/20)
        r = max_range("free-space", self.ctx(), self.radio(120.0))
        assert r == pytest.approx(LAMBDA / (4.0 * math.pi) * 10.0 ** 6.0, abs=0.01)

    def test_six_db_doubles_free_space_range(self):
        r1 = max_range("free-space", self.ctx(), self.radio(120.0))
        r2 = max_range("free-space", self.ctx(), self.radio(126.0))
        assert r2 / r1 == pytest.approx(10.0 ** 0.3, rel=1e-6)

    def test_twelve_db_doubles_n4_log_distance_range(self):
        ctx = self.ctx(log_distance=LogDistanceParams(n=4.0, l_p0=100.0, d_0=100.0))
        r1 = max_range("log-distance", ctx, self.radio(120.0))
        r2 = max_range("log-distance", ctx, self.radio(132.0))
        assert r1 == pytest.approx(100.0 * 10.0 ** 0.5, rel=1e-6)
        assert r2 / r1 == pytest.approx(10.0 ** 0.3, rel=1e-6)  # 1.9953, the 40 dB/decade "double"

    def test_unbounded_at_large_budget(self):
        with pytest.raises(UnboundedRange) as err:
            max_range("free-space", self.ctx(), self.radio(150.0))
        assert err.value.cap_m == 100_000.0

    def test_no_coverage(self):
        with pytest.raises(NoCoverage):
            max_range("free-space", self.ctx(), self.radio(20.0))

    def test_two_ray_round_up_to_the_horizon(self, campaign1):
        # the scan and k-section probe the rounding band just inside the
        # horizon, where the specular point has no valid geometry
        r = max_range("two-ray-round", campaign1.model_context(), campaign1.radio)
        assert isinstance(r, float)
        assert 7900.0 < r < horizon_distance(campaign1.model_context().geometry_at(1.0))

    def test_oscillatory_model_budget_respected(self):
        radio = self.radio(130.0)
        r = max_range("two-ray-flat", self.ctx(), radio)
        assert evaluate_model("two-ray-flat", CTX, r) == pytest.approx(130.0, abs=0.01)
        assert evaluate_model("two-ray-flat", CTX, min(r * 1.05, 99_000.0)) > 130.0


class TestFiniteness:
    def test_no_nan_or_inf_escapes_in_domain(self):
        # random probe of the whole family over its in-domain distances
        rng = np.random.default_rng(99)
        ctx = ModelContext(
            h_t=0.35, h_r=5.2, frequency=F,
            sea=SeaState(sigma_h=0.05, beta_0=0.002),
            polarization=Polarization.CIRCULAR,
            log_distance=LogDistanceParams(n=4.0, l_p0=80.0, d_0=100.0),
        )
        d_h = horizon_distance(ctx.geometry_at(1.0))
        for _ in range(300):
            d = 10.0 ** rng.uniform(0.0, 4.7)  # 1 m .. 50 km
            for model in ("free-space", "two-ray-flat", "rel", "bullington", "itu", "log-distance"):
                assert math.isfinite(evaluate_model(model, ctx, d))
            if d < d_h:
                assert math.isfinite(evaluate_model("two-ray-round", ctx, d))


class TestWholeContextErrors:
    # A context a model cannot evaluate at all fails every point with one
    # reason: sweep skips every point, compare_models drops the model, and
    # evaluate_model and max_range raise.
    CASES = [
        (
            "bullington", dict(h_t=16.0, frequency=F), AntennaTooHigh,
            "antenna height 16.0 m exceeds the 15 m Bullington ceiling at 870 MHz",
        ),
        (
            "itu", dict(h_t=0.35, frequency=20e6), FrequencyOutOfRange,
            "20.0 MHz outside the 30 MHz - 50 GHz model range",
        ),
        (
            "itu", dict(h_t=0.35, frequency=F, itu=ItuParams(time_percentage=10.0)),
            UnsupportedTimePercentage,
            "only the median (T_pc = 50) path is computed by the reduced model",
        ),
    ]

    @pytest.mark.parametrize("model, kw, cls, message", CASES,
                             ids=["antenna-too-high", "frequency", "time-percentage"])
    def test_every_boundary(self, model, kw, cls, message):
        ctx = ModelContext(h_r=5.2, **kw)
        curve = sweep(model, ctx, 100.0, 10_000.0, 5)
        assert curve.distances.tolist() == [] and curve.losses.tolist() == []
        assert curve.skipped == tuple(
            (d, f"{cls.__name__}: {message}") for d in distance_grid(100.0, 10_000.0, 5)
        )
        samples = SampleSet([100.0, 1000.0, 5000.0], [80.0, 100.0, 120.0])
        reports = compare_models(samples, [model, "free-space"], ctx)
        assert [r.model_id for r in reports] == ["free-space"]
        with pytest.raises(cls, match=f"^{re.escape(message)}$"):
            evaluate_model(model, ctx, 1000.0)
        with pytest.raises(cls, match=f"^{re.escape(message)}$"):
            max_range(model, ctx, RadioConfig(frequency=ctx.frequency, tx_power=14.0))


@settings(max_examples=300, deadline=None)
@given(
    h_t=st.floats(0.01, 8000.0),
    h_r=st.floats(0.01, 8000.0),
    frequency=st.floats(40e6, 40e9),
    k=st.floats(0.01, 1000.0),
    sea=st.builds(
        SeaState,
        sigma_h=st.floats(0.0, 100.0),
        beta_0=st.floats(0.0, 1.6),
        relative_permittivity=st.floats(1.0, 300.0, exclude_min=True),
        conductivity=st.floats(0.0, 100.0),
    ),
    polarization=st.sampled_from(Polarization),
    d=st.lists(st.floats(0.1, 3e6), min_size=1, max_size=24),
)
def test_every_point_is_a_finite_loss_or_a_reason(h_t, h_r, frequency, k, sea, polarization, d):
    # Over the declared domain each point either evaluates (code 0, finite
    # dB) or carries a failure code and nan; any exception fails the test.
    ctx = ModelContext(
        h_t=h_t, h_r=h_r, frequency=frequency, earth=EarthModel(effective_radius_factor=k),
        sea=sea, polarization=polarization,
        log_distance=LogDistanceParams(n=3.0, l_p0=40.0, d_0=1.0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BullingtonValidityWarning)
        for model in MODEL_IDS:
            loss, reasons = losses(model, ctx, d)
            assert reasons.dtype == np.uint8 and loss.shape == reasons.shape == (len(d),)
            ok = reasons == OK
            assert np.isfinite(loss[ok]).all(), model
            assert np.isnan(loss[~ok]).all(), model
            assert set(reasons[~ok].tolist()) <= set(REASONS), model


class TestModelContextValidation:
    @pytest.mark.parametrize("h_t", [-0.35, 0.0, 20_000.0])
    def test_rejects_heights_every_model_rejects(self, h_t):
        # two-ray-flat returned a finite loss for these heights while rel raised
        with pytest.raises(ValueError, match="antenna heights"):
            ModelContext(h_t=h_t, h_r=5.2, frequency=F)
        with pytest.raises(ValueError, match="antenna heights"):
            ModelContext(h_t=0.35, h_r=h_t, frequency=F)


class TestRadioConfigValidation:
    def test_rejects_non_finite_sensitivity(self):
        with pytest.raises(ValueError):
            RadioConfig(frequency=F, tx_power=14.0, rx_sensitivity=-math.inf)

    def test_rejects_negative_polarization_loss(self):
        with pytest.raises(ValueError):
            RadioConfig(frequency=F, tx_power=14.0, polarization_loss=-1.0)

    def test_budget(self):
        r = RadioConfig(frequency=F, tx_power=18.3, rx_antenna_gain=9.0,
                        polarization_loss=3.0, rx_sensitivity=-138.0)
        assert r.budget == pytest.approx(162.3)


class TestItuParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            ItuParams(time_percentage=0.0)
        with pytest.raises(ValueError):
            ItuParams(time_percentage=100.0)
