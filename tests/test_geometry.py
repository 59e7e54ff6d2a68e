import math

import numpy as np
import pytest

import oracles
from sealoss import (
    EarthModel,
    GeoPoint,
    LinkGeometry,
    ModelContext,
    NoSpecularPoint,
    critical_distance,
    evaluate_model,
    fresnel60_distance,
    great_circle_distance,
    horizon_distance,
    specular_points,
    wavelength,
)
from sealoss.errors import BEYOND_HORIZON, COLLAPSED, OK
from sealoss.geometry import point_errors

F_MHZ_8695 = 869.5e6
LAMBDA = wavelength(F_MHZ_8695)


def link(h_t, h_r, d, k=1.0):
    return LinkGeometry(h_t, h_r, d, EarthModel(effective_radius_factor=k))


class TestGreatCircle:
    def test_coincident_points(self):
        p = GeoPoint(12.5, -33.25)
        assert great_circle_distance(p, p) == 0.0

    def test_meridian_arc(self):
        # oracle: r_e * dlat = 6371000 * pi/180
        d = great_circle_distance(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(111_194.9266, abs=0.1)

    def test_antipodal(self):
        d = great_circle_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert d == pytest.approx(math.pi * 6_371_000.0, abs=0.5)

    def test_uses_true_radius_not_effective(self):
        a, b = GeoPoint(10.0, 10.0), GeoPoint(10.5, 10.2)
        d1 = great_circle_distance(a, b, EarthModel(effective_radius_factor=1.0))
        d2 = great_circle_distance(a, b, EarthModel(effective_radius_factor=4.0 / 3.0))
        assert d1 == d2

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert great_circle_distance(a, b) == pytest.approx(
                great_circle_distance(b, a), rel=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pts = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
            ab = great_circle_distance(pts[0], pts[1])
            bc = great_circle_distance(pts[1], pts[2])
            ac = great_circle_distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6

    def test_geopoint_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(90.1, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -180.5)


class TestCharacteristicDistances:
    def test_critical_distance_campaigns(self):
        # 4 h_t h_r / lambda; the published geometry rounds these to 11 m and 21 m
        assert critical_distance(link(0.35, 2.65, 1.0), LAMBDA) == pytest.approx(10.7603, abs=1e-3)
        assert critical_distance(link(0.35, 5.2, 1.0), LAMBDA) == pytest.approx(21.1145, abs=1e-3)

    def test_critical_distance_linearity(self):
        d1 = critical_distance(link(0.35, 5.2, 1.0), LAMBDA)
        d2 = critical_distance(link(0.35, 2.6, 1.0), LAMBDA)
        assert d2 == pytest.approx(d1 / 2.0, rel=1e-12)

    def test_zero_height_rejected(self):
        with pytest.raises(ValueError):
            link(0.0, 5.2, 1.0)

    def test_horizon_distance_campaigns(self):
        assert horizon_distance(link(0.35, 2.65, 1.0)) == pytest.approx(7922.68, abs=0.5)
        assert horizon_distance(link(0.35, 5.2, 1.0)) == pytest.approx(10251.72, abs=0.5)

    def test_horizon_small_angle_oracle(self):
        # sqrt(2 r h) expansion agrees to 0.01 % at these heights
        r = 6_371_000.0
        for h_t, h_r in ((0.35, 2.65), (0.35, 5.2)):
            exact = horizon_distance(link(h_t, h_r, 1.0))
            approx = math.sqrt(2 * r * h_t) + math.sqrt(2 * r * h_r)
            assert abs(exact - approx) / exact < 1e-4

    def test_horizon_scales_with_effective_radius(self):
        d1 = horizon_distance(link(0.35, 5.2, 1.0, k=1.0))
        d43 = horizon_distance(link(0.35, 5.2, 1.0, k=4.0 / 3.0))
        assert d43 == pytest.approx(d1 * math.sqrt(4.0 / 3.0), rel=1e-6)

    def test_monotone_in_heights(self):
        base_h = horizon_distance(link(0.35, 5.2, 1.0))
        base_c = critical_distance(link(0.35, 5.2, 1.0), LAMBDA)
        assert horizon_distance(link(0.5, 5.2, 1.0)) > base_h
        assert horizon_distance(link(0.35, 6.0, 1.0)) > base_h
        assert critical_distance(link(0.5, 5.2, 1.0), LAMBDA) > base_c
        assert critical_distance(link(0.35, 6.0, 1.0), LAMBDA) > base_c


class TestFresnel60:
    def test_campaign_values(self):
        assert fresnel60_distance(link(0.35, 2.65, 1.0), F_MHZ_8695) == pytest.approx(31.264, abs=1e-2)
        assert fresnel60_distance(link(0.35, 5.2, 1.0), F_MHZ_8695) == pytest.approx(61.239, abs=1e-2)

    def test_unit_reading_against_clearance_oracle(self):
        # The closed form carries no unit statement; reading its output as km
        # lands within a few percent of the geometric 60 %-clearance sweep,
        # while any other reading is off by orders of magnitude.
        for h_t, h_r in ((0.35, 2.65), (0.35, 5.2), (1.5, 8.0)):
            formula = fresnel60_distance(link(h_t, h_r, 1.0), F_MHZ_8695)
            oracle = oracles.fresnel60_clearance_distance(h_t, h_r, F_MHZ_8695, 6_371_000.0)
            assert 0.8 < formula / oracle < 1.25

    def test_monotone_in_rx_height(self):
        values = [fresnel60_distance(link(0.35, h_r, 1.0), F_MHZ_8695) for h_r in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_ordering_between_critical_and_horizon(self):
        for h_t, h_r in ((0.35, 2.65), (0.35, 5.2)):
            g = link(h_t, h_r, 1.0)
            d_c = critical_distance(g, LAMBDA)
            d_60 = fresnel60_distance(g, F_MHZ_8695)
            d_h = horizon_distance(g)
            assert d_c < d_60 < d_h


class TestReflectionGeometry:
    def test_symmetric_heights_give_midpoint(self):
        rg, _ = specular_points(link(3.0, 3.0, 4000.0))
        assert rg.ground_x == pytest.approx(2000.0, abs=1e-6)

    def test_flat_earth_limit(self):
        rg, _ = specular_points(link(0.35, 5.2, 5000.0, k=1e9))
        expected = 5000.0 * 0.35 / (0.35 + 5.2)
        assert abs(rg.ground_x - expected) / expected < 1e-6
        assert rg.h_t_prime == pytest.approx(0.35, rel=1e-9)
        assert rg.h_r_prime == pytest.approx(5.2, rel=1e-9)

    def test_heights_shrink_on_curved_earth(self):
        rg, _ = specular_points(link(0.35, 5.2, 5000.0))
        assert rg.h_t_prime < 0.35
        assert rg.h_r_prime < 5.2
        assert rg.grazing_angle > 0

    def test_path_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h_t, h_r = rng.uniform(0.2, 10.0, 2)
            g1 = link(h_t, h_r, 1.0)
            d = rng.uniform(0.05, 0.9) * horizon_distance(g1)
            rg, reasons = specular_points(link(h_t, h_r, d))
            assert reasons.tolist() == [OK] and rg.x + rg.x_prime >= rg.l

    def test_beyond_horizon_raises(self):
        g = link(0.35, 5.2, 1.0)
        d_h = horizon_distance(g)
        ctx = ModelContext(h_t=0.35, h_r=5.2, frequency=F_MHZ_8695)
        with pytest.raises(NoSpecularPoint):
            evaluate_model("two-ray-round", ctx, d_h + 1.0)
        with pytest.raises(NoSpecularPoint):
            evaluate_model("two-ray-round", ctx, d_h)

    def test_rounding_band_inside_horizon(self):
        # 0.06 m inside campaign1's horizon (7922.68 m) the specular point gives
        # x + x' < l by rounding: no specular point there, not a bare ValueError
        ctx = ModelContext(h_t=0.35, h_r=2.65, frequency=F_MHZ_8695)
        with pytest.raises(NoSpecularPoint, match="grazing geometry collapsed"):
            evaluate_model("two-ray-round", ctx, 7922.62)

    def test_reason_codes_become_errors_at_the_boundary(self):
        g = link(0.35, 2.65, np.array([100.0, 7922.62, 20_000.0]))
        rg, reasons = specular_points(g)
        assert reasons.dtype == np.uint8
        assert reasons.tolist() == [OK, COLLAPSED, BEYOND_HORIZON]
        assert rg.l.shape == (1,)
        collapsed, beyond = point_errors(g, reasons)
        assert type(collapsed) is type(beyond) is NoSpecularPoint
        assert str(collapsed) == "grazing geometry collapsed at d = 7922.6 m"
        assert str(beyond) == (
            f"d = 20000.0 m is at or beyond the horizon ({horizon_distance(g):.1f} m)"
        )

    def test_specular_root_against_a_50_digit_root(self):
        # Both campaigns' heights at k = 1, 4/3 and near-flat 1e9, from 1 mm to
        # 1e-9 of d_h short of the horizon, then random links from 1 cm to
        # 10 km high, k from 0.01 to 1000, out to 1e-12 of d_h short of it.
        def d_h(h_t, h_r, k):
            return horizon_distance(link(h_t, h_r, 1.0, k))

        cases = [(h_t, h_r, k, np.geomspace(1e-3, (1.0 - 1e-9) * d_h(h_t, h_r, k), 20), 1e-13)
                 for h_t, h_r in ((0.35, 2.65), (0.35, 5.2)) for k in (1.0, 4.0 / 3.0, 1e9)]
        rng = np.random.default_rng(14)
        for _ in range(60):
            (h_t, h_r), k = 10.0 ** rng.uniform(-2.0, 4.0, 2), 10.0 ** rng.uniform(-2.0, 3.0)
            far = (1.0 - 10.0 ** rng.uniform(-12.0, -1.0)) * d_h(h_t, h_r, k)
            cases.append((h_t, h_r, k, np.array([10.0 ** rng.uniform(-6.0, 0.0) * far, far]), 1e-11))
        for h_t, h_r, k, d, rtol in cases:
            g = link(h_t, h_r, d, k)
            rg, reasons = specular_points(g)
            d = d[reasons == OK]
            assert d.size >= reasons.size - 1
            r_e = g.earth.effective_radius
            exact = [oracles.specular_cubic_root(h_t, h_r, d_i, r_e) for d_i in d]
            np.testing.assert_allclose(rg.ground_x, exact, rtol=rtol, atol=0.0)

    def test_brute_force_oracle_5km(self):
        # exact-sphere reflected-path minimisation on a 1 mm grid
        rg, _ = specular_points(link(0.35, 5.2, 5000.0))
        oracle = oracles.specular_ground_distance(0.35, 5.2, 5000.0, 6_371_000.0)
        assert abs(rg.ground_x - oracle) < 0.005

    def test_grazing_angles_equal_both_sides(self):
        rg, _ = specular_points(link(0.35, 5.2, 8000.0))
        assert np.arctan2(rg.h_r_prime, rg.ground_x_prime) == pytest.approx(
            rg.grazing_angle, rel=1e-6
        )


class TestEarthModelValidation:
    def test_invalid_models(self):
        with pytest.raises(ValueError):
            EarthModel(true_radius=-1.0)
        with pytest.raises(ValueError):
            EarthModel(effective_radius_factor=0.0)

    def test_height_ceiling(self):
        with pytest.raises(ValueError):
            LinkGeometry(10_001.0, 5.0, 1000.0)
