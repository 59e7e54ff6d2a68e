import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc, i0e

import oracles
from sealoss import (
    EarthModel,
    LinkGeometry,
    Polarization,
    SeaState,
    divergence_factor,
    effective_reflection_at,
    fresnel_reflection,
    horizon_distance,
    roughness_factor,
    sea,
    shadowing_factor,
    specular_points,
    wavelength,
)

F = 869.5e6
SEA = SeaState()


class TestFresnelReflection:
    def test_grazing_limit_is_minus_one(self):
        for pol in (Polarization.VERTICAL, Polarization.HORIZONTAL):
            r = fresnel_reflection(1e-7, F, SEA, pol)
            assert abs(r + 1.0) < 1e-3

    def test_perfect_conductor_magnitude(self):
        pec = SeaState(conductivity=1e9)
        for pol in (Polarization.VERTICAL, Polarization.HORIZONTAL):
            for psi_deg in (5.0, 30.0, 60.0, 90.0):
                r = fresnel_reflection(math.radians(psi_deg), F, pec, pol)
                assert abs(r) == pytest.approx(1.0, abs=1e-3)

    def test_against_independent_formulation(self):
        # refractive-index / from-normal-angle formulation coded separately
        sea = SeaState(relative_permittivity=70.0, conductivity=5.0)
        for psi_deg in (1.0, 10.0, 30.0, 75.0):
            psi = math.radians(psi_deg)
            for pol, name in ((Polarization.HORIZONTAL, "horizontal"), (Polarization.VERTICAL, "vertical")):
                got = fresnel_reflection(psi, F, sea, pol)
                want = oracles.fresnel_coefficient(psi, F, 70.0, 5.0, name)
                assert got == pytest.approx(want, abs=1e-12)

    def test_circular_uses_vertical_coefficient(self):
        psi = math.radians(10.0)
        assert fresnel_reflection(psi, F, SEA, Polarization.CIRCULAR) == fresnel_reflection(
            psi, F, SEA, Polarization.VERTICAL
        )

    def test_passive_magnitude_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            psi = rng.uniform(1e-4, math.pi / 2)
            pol = rng.choice([Polarization.VERTICAL, Polarization.HORIZONTAL])
            assert abs(fresnel_reflection(psi, F, SEA, pol)) <= 1.0 + 1e-12

    def test_continuity_in_angle(self):
        # |dR/dpsi| peaks near grazing at ~20 per radian for sea water
        angles = np.linspace(1e-4, math.pi / 2, 5000)
        vals = [fresnel_reflection(a, F, SEA, Polarization.VERTICAL) for a in angles]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.01

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            fresnel_reflection(0.0, F, SEA)
        with pytest.raises(ValueError):
            fresnel_reflection(math.pi / 2 + 0.01, F, SEA)


class TestRoughness:
    def test_smooth_sea(self):
        calm = SeaState(sigma_h=0.0, beta_0=0.0)
        assert roughness_factor(0.1, wavelength(F), calm) == 1.0

    def test_fully_rough_limit(self):
        # Miller-Brown keeps an algebraic ~1/(2g sqrt(pi)) tail
        rough = SeaState(sigma_h=50.0)
        psi, lam = math.radians(30.0), wavelength(F)
        assert roughness_factor(psi, lam, rough) < 1e-3
        tails = [roughness_factor(psi, lam, SeaState(sigma_h=s)) for s in (50.0, 500.0, 5000.0)]
        assert all(b < a for a, b in zip(tails, tails[1:]))

    def test_value_at_g_half_against_series(self):
        # g = 0.5 -> rho = exp(-0.5) I0(0.5); I0 from direct series summation
        psi, lam = 0.3, 1.0
        sigma = 0.5 * lam / (2.0 * math.pi * math.sin(psi))
        rho = roughness_factor(psi, lam, SeaState(sigma_h=sigma))
        expected = math.exp(-0.5) * oracles.bessel_i0_series(0.5)
        assert rho == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.645, abs=1e-3)

    def test_monotone_in_sigma_and_angle(self):
        lam = wavelength(F)
        rho_sigma = [roughness_factor(0.01, lam, SeaState(sigma_h=s)) for s in (0.0, 0.1, 0.3, 1.0)]
        assert all(b < a or (a == b == 1.0) for a, b in zip(rho_sigma, rho_sigma[1:]))
        rho_psi = [roughness_factor(p, lam, SeaState(sigma_h=0.3)) for p in (0.001, 0.01, 0.1, 0.5)]
        assert all(b < a for a, b in zip(rho_psi, rho_psi[1:]))


class TestSpecialFunctions:
    """numpy/stdlib i0e and erfc against scipy, which only the tests use."""

    def test_i0e_against_scipy(self):
        seam = sea._I0E_SERIES_FROM
        x = np.concatenate([
            np.linspace(0.0, 1e6, 100_001),
            np.geomspace(1e-12, 1e6, 10_000),
            np.linspace(seam - 1.0, seam + 1.0, 2001),
            [seam, np.nextafter(seam, 0.0), np.nextafter(seam, np.inf)],
        ])
        np.testing.assert_allclose(sea._i0e(x), i0e(x), rtol=1e-12, atol=0.0)

    def test_erfc_against_scipy(self):
        v = np.concatenate([np.geomspace(1e-3, 30.0, 100_000), np.linspace(26.0, 28.0, 2001)])
        got, want = sea._erfc(v).astype(float), erfc(v)
        # scipy flushes to 0 from v ~ 26.64, math.erfc from ~27.3; in between
        # both are subnormal or zero
        normal = want >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0.0)
        assert (np.abs(got[~normal]) <= np.finfo(float).tiny).all()
        assert sea._erfc(30.0) == erfc(30.0) == 0.0


class TestShadowing:
    def test_no_slopes_no_shadowing(self):
        assert shadowing_factor(0.001, SeaState(beta_0=0.0)) == 1.0

    def test_vanishing_slopes_no_shadowing_and_no_warning(self):
        # v = tan(psi) / (sqrt(2) beta_0) overflows to inf on the way to S = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shadowing_factor(0.1, SeaState(beta_0=1e-310)) == 1.0

    def test_steep_incidence_limit(self):
        # saturates to exactly 1.0 in float once erfc underflows
        vals = [shadowing_factor(p, SEA) for p in (0.01, 0.05, 0.15, 0.5, 1.2)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(b > a for a, b in zip(vals[:3], vals[1:3]))
        assert vals[-1] > 0.9999

    def test_monte_carlo_oracle(self):
        """Smith's formula against a faithful rough-surface Monte Carlo.

        Smith's uncorrelated approximation systematically overestimates
        illumination near v ~ 0.7: the correlated-surface MC sits ~0.03 below
        it (stable across seeds and resolutions), while at psi = 3 beta_0 the
        two agree to a fraction of a percent.  The bound reflects that
        measured model gap.
        """
        mc = oracles.monte_carlo_shadowing(0.05, 0.05, seed=7)
        smith = shadowing_factor(0.05, SeaState(beta_0=0.05))
        assert smith == pytest.approx(oracles.smith_shadowing(0.05, 0.05), abs=1e-12)
        assert abs(mc - smith) < 0.045

        mc_steep = oracles.monte_carlo_shadowing(0.15, 0.05, seed=7)
        smith_steep = shadowing_factor(0.15, SeaState(beta_0=0.05))
        assert abs(mc_steep - smith_steep) < 0.01

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = shadowing_factor(rng.uniform(1e-4, 1.0), SeaState(beta_0=rng.uniform(0.001, 0.3)))
            assert 0.0 <= s <= 1.0


class TestDivergence:
    def test_flat_earth_limit(self):
        g = LinkGeometry(0.35, 5.2, 5000.0, EarthModel(effective_radius_factor=1e9))
        d = divergence_factor(specular_points(g)[0], g)
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_decreases_toward_horizon(self):
        g1 = LinkGeometry(0.35, 5.2, 1.0)
        d_h = horizon_distance(g1)
        vals = []
        for frac in (0.2, 0.5, 0.8, 0.95, 0.99):
            g = LinkGeometry(0.35, 5.2, frac * d_h)
            vals.append(divergence_factor(specular_points(g)[0], g).item())
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_against_exact_geometry_oracle(self):
        # recompute x, x', psi from the exact-sphere specular point and
        # evaluate the divergence formula independently
        r_e = 6_371_000.0
        g = LinkGeometry(0.35, 5.2, 9000.0)
        rg, _ = specular_points(g)
        x_g = oracles.specular_ground_distance(0.35, 5.2, 9000.0, r_e)
        xp_g = 9000.0 - x_g
        h_t_p = 0.35 - x_g ** 2 / (2 * r_e)
        psi = math.atan2(h_t_p, x_g)
        expected = 1.0 / math.sqrt(1.0 + 2.0 * x_g * xp_g / (r_e * 9000.0 * math.sin(psi)))
        assert divergence_factor(rg, g) == pytest.approx(expected, rel=1e-3)


class TestEffectiveReflection:
    def test_smooth_pec_flat_limit(self):
        g = LinkGeometry(2.0, 2.0, 500.0, EarthModel(effective_radius_factor=1e9))
        rg, _ = specular_points(g)
        calm_pec = SeaState(sigma_h=0.0, beta_0=0.0, conductivity=1e9)
        r = effective_reflection_at(rg, g, F, calm_pec, Polarization.HORIZONTAL)
        assert r.magnitude == pytest.approx(1.0, abs=1e-3)
        assert abs(r.phase) == pytest.approx(math.pi, abs=0.01)

    def test_contraction(self):
        g = LinkGeometry(0.35, 5.2, 3000.0)
        rg, _ = specular_points(g)
        r = effective_reflection_at(rg, g, F, SEA, Polarization.VERTICAL)
        assert r.magnitude <= abs(r.fresnel) + 1e-15

    def test_recomposition(self):
        g = LinkGeometry(0.35, 5.2, 3000.0)
        rg, _ = specular_points(g)
        r = effective_reflection_at(rg, g, F, SEA, Polarization.CIRCULAR)
        product = abs(r.fresnel) * r.roughness * r.shadowing * r.divergence
        assert abs(r.magnitude - product) < 1e-12
        assert r.value == pytest.approx(r.fresnel * r.roughness * r.shadowing * r.divergence, abs=1e-12)

    def test_roughening_never_raises_magnitude(self):
        g = LinkGeometry(0.35, 5.2, 3000.0)
        rg, _ = specular_points(g)
        base = effective_reflection_at(rg, g, F, SeaState(sigma_h=0.05, beta_0=0.01))
        for sigma in (0.1, 0.3):
            r = effective_reflection_at(rg, g, F, SeaState(sigma_h=sigma, beta_0=0.01))
            assert r.magnitude <= base.magnitude + 1e-15
        for beta in (0.03, 0.1):
            r = effective_reflection_at(rg, g, F, SeaState(sigma_h=0.05, beta_0=beta))
            assert r.magnitude <= base.magnitude + 1e-15

    @pytest.mark.parametrize("d", [3000.0, np.array([500.0, 3000.0, 7000.0])], ids=["number", "array"])
    def test_stored_as_its_four_factors(self, d):
        g = LinkGeometry(0.35, 5.2, d)
        rg, _ = specular_points(g)
        r = effective_reflection_at(rg, g, F, SEA, Polarization.VERTICAL)
        names = [f.name for f in dataclasses.fields(r)]
        assert names == ["fresnel", "roughness", "shadowing", "divergence"]
        assert list(r.components) == names
        assert all(r.components[name] is getattr(r, name) for name in names)
        np.testing.assert_array_equal(
            r.magnitude, np.abs(r.fresnel) * r.roughness * r.shadowing * r.divergence
        )
        np.testing.assert_array_equal(r.phase, np.angle(r.fresnel))
        assert np.shape(r.magnitude) == np.shape(r.phase) == np.shape(r.value) == (np.size(d),)


class TestSeaStateValidation:
    def test_invalid(self):
        with pytest.raises(ValueError):
            SeaState(sigma_h=-0.1)
        with pytest.raises(ValueError):
            SeaState(relative_permittivity=0.5)
        with pytest.raises(ValueError):
            SeaState(conductivity=-1.0)
