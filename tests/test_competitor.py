"""Tests for the sliding-competitor construction and its closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conemin import competitor
from conemin.competitor import (
    CompetitorSpec,
    ConnectionProfile,
    area_deficit,
    deficit_sweep,
    epsilon_star,
    export_competitor_mesh,
    feasible_params,
    phi,
    phi_prime,
    section_areas,
    trapezium_area,
    weighted_energy,
)
from conemin.mesh import surface_area

from oracles import bridge_excess_simpson, profile_energy_simpson, simpson


def test_phi_endpoint_values():
    p = ConnectionProfile(h=2.0, alpha=1.5)
    assert phi(p, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert phi(p, 1.0 + p.h) == pytest.approx(0.0, abs=1e-14)


def test_phi_known_value_alpha_one():
    # alpha=1, h=1: phi(t) = (2/t - 1), so phi(1.5) = 1/3
    p = ConnectionProfile(h=1.0, alpha=1.0)
    assert phi(p, 1.5) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_phi_monotone_decreasing():
    p = ConnectionProfile(h=3.0, alpha=0.7)
    t = np.linspace(1.0, 4.0, 200).tolist()
    vals = [phi(p, x) for x in t]
    assert np.all(np.diff(vals) < 0)
    assert all(phi_prime(p, x) < 0 for x in t)


def test_phi_prime_matches_finite_differences():
    p = ConnectionProfile(h=2.5, alpha=1.3)
    t = np.linspace(1.001, 1.0 + p.h - 0.001, 50).tolist()
    step = 1e-6
    err = [abs(phi_prime(p, x)
               - (phi(p, x + step) - phi(p, x - step)) / (2 * step))
           for x in t]
    assert max(err) <= 1e-8


def test_phi_domain_errors():
    p = ConnectionProfile(h=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        phi(p, 0.5)
    with pytest.raises(ValueError):
        phi_prime(p, 2.5)
    for h, alpha in ((1.0, 1.0), (2.5, 1.3), (8.0, 0.49), (64.0, 2.25)):
        p = ConnectionProfile(h=h, alpha=alpha)
        for bad in (1.0 - 1e-9, 1.0 + h + 1e-9, math.nan):
            for f in (phi, phi_prime):
                with pytest.raises(ValueError, match=r"\[1, 1\+h\]"):
                    f(p, bad)


def test_profile_validation():
    with pytest.raises(ValueError):
        ConnectionProfile(h=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        ConnectionProfile(h=1.0, alpha=-2.0)


def test_energy_anchor_five_sixths():
    # alpha=1, h=3: (1/2)(4+1)/(4-1) = 5/6
    assert weighted_energy(ConnectionProfile(h=3.0, alpha=1.0)) == pytest.approx(
        5.0 / 6.0, abs=1e-15)


def test_energy_anchor_alpha_two():
    # alpha=2, h=1: (2/2)(4+1)/(4-1) = 5/3
    assert weighted_energy(ConnectionProfile(h=1.0, alpha=2.0)) == pytest.approx(
        5.0 / 3.0, abs=1e-14)


def test_energy_matches_quadrature_on_grid():
    # fixed-panel Simpson is the independent oracle; the steep corner
    # (large alpha with large h) needs adaptive quadrature and is covered
    # by the acceptance suite instead
    alphas = np.linspace(0.25, 2.0, 10)
    hs = np.geomspace(0.1, 8.0, 10)
    worst = 0.0
    for alpha in alphas:
        for h in hs:
            closed = weighted_energy(ConnectionProfile(h=h, alpha=alpha))
            quad = profile_energy_simpson(alpha, h, panels=20000)
            worst = max(worst, abs(closed - quad))
    assert worst <= 1e-10


def test_energy_decreases_to_half_alpha():
    vals = [weighted_energy(ConnectionProfile(h=h, alpha=1.0))
            for h in (1.0, 10.0, 100.0, 1e4)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert abs(vals[-1] - 0.5) <= 1e-3


def test_feasible_params_unit_a():
    p = feasible_params(1.0)
    assert p.alpha == 1.0
    assert p.h == 4.0
    assert weighted_energy(p) < 1.0


def test_feasible_params_energy_below_threshold():
    # (1+h)^alpha = 5 gives the energy (alpha/2)·6/4 = ¾·a² at every a
    for a in (0.1, 0.2, 0.5, 1.0, 2.0):
        p = feasible_params(a)
        assert weighted_energy(p) < a * a
        assert weighted_energy(p) == pytest.approx(0.75 * a * a, rel=1e-12)


def test_feasible_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        feasible_params(0.0)


def test_feasible_params_domain_keeps_mesh_finite():
    # the domain ends near a = 0.09524, where 5^(4/a^2) leaves the floats;
    # just inside it the competitor mesh's area is still finite
    with pytest.raises(ValueError, match="a = 0.0952 is too small"):
        feasible_params(0.0952)
    a = 0.0953
    profile = feasible_params(a)
    for b in (0.5, 1.0, 2.0):
        spec = CompetitorSpec(a=a, b=b, profile=profile, epsilon=0.5 / a)
        assert math.isfinite(surface_area(export_competitor_mesh(spec, 64)))


def test_section_areas_closed_form():
    A0, Ae = section_areas(2.0, 0.5, 0.1)
    assert A0 == pytest.approx(2.0, abs=1e-15)
    assert Ae == pytest.approx(2.0 - 4.0 * 0.01 / 0.5, rel=1e-14)


def test_section_areas_epsilon_range():
    with pytest.raises(ValueError):
        section_areas(2.0, 1.0, 0.5)  # eps must stay below 1/a


def test_trapezium_area_value():
    assert trapezium_area(2.0, 3.0) == pytest.approx(3.0 * 5.0 / 2.0, rel=1e-15)


def test_ruled_area_flat_case_equals_trapezium():
    p = ConnectionProfile(h=2.0, alpha=1.0)
    spec = CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.0)
    assert area_deficit(spec).ruled_area == pytest.approx(
        trapezium_area(1.0, 2.0), rel=1e-12)


def test_ruled_area_against_simpson():
    p = ConnectionProfile(h=3.0, alpha=1.0)
    spec = CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.1)

    def f(t):
        d = phi_prime(p, t)
        return 2.0 * t * math.sqrt(1.0 + 0.01 * d * d)

    assert area_deficit(spec).ruled_area == pytest.approx(
        simpson(f, 1.0, 4.0, 20000), abs=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_bridge_bracket_holds_quad_excess(a):
    # on c04's 32-point sweeps; a = 2 reaches u > 1/2 near t = 1, so its
    # larger eps take the Gauss-Legendre piece and its smaller ones do not
    profile = feasible_params(a)
    L = math.log1p(profile.h)
    K = -profile.alpha / math.expm1(-profile.alpha * L)
    eps = 0.5 / a * np.arange(1, 33) / 32
    split = (eps * K) ** 2 > 0.5
    assert split.any() == (a == 2.0) and not split.all()
    for b in (0.5, 1.0, 2.0):
        prev, last = competitor._bridge_excess(b, profile, eps)
        for e, lo, hi in zip(eps.tolist(), np.minimum(prev, last).tolist(),
                             np.maximum(prev, last).tolist()):
            def g(t):
                u = e * e * phi_prime(profile, t) ** 2
                return (2.0 * t / b) * u / (1.0 + math.sqrt(1.0 + u))

            q, _ = quad(g, 1.0, 1.0 + profile.h, epsabs=0.0, epsrel=1e-13,
                        limit=200)
            assert lo - 1e-12 * q <= q <= hi + 1e-12 * q


def test_deficit_matches_log_simpson_at_small_a():
    # h = 2^40 here: a bridge whose mass sits far out in t, which an
    # adaptive rule in t can miss
    profile = ConnectionProfile(h=2.0**40, alpha=0.2 * 0.2)
    rep = area_deficit(CompetitorSpec(a=0.2, b=1.0, profile=profile,
                                      epsilon=2.5))
    oracle = (bridge_excess_simpson(1.0, profile.h, profile.alpha, 2.5)
              - 0.2 * 0.2 * 2.5 * 2.5)
    assert oracle == pytest.approx(-0.00199124393465, rel=1e-11)
    for value in (rep.deficit, rep.deficit_lower, rep.deficit_upper):
        assert value == pytest.approx(oracle, rel=1e-9)
    # the bridge excess, 0.248, is below half an ulp of the 1.2e24-sized
    # trapezium, so only the report's own field carries it
    assert rep.ruled_area - rep.T_h_area == 0.0
    assert rep.bridge_excess == pytest.approx(
        bridge_excess_simpson(1.0, profile.h, profile.alpha, 2.5), rel=1e-9)


def test_deficit_zero_at_zero_epsilon():
    p = feasible_params(1.0)
    rep = area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.0))
    assert rep.deficit == 0.0
    assert rep.A_eps == rep.A0
    assert rep.ruled_area == pytest.approx(rep.T_h_area, rel=1e-14)


def test_deficit_second_derivative_anchor():
    # a=b=1, alpha=1, h=3: 2*(5/6 - 1) = -1/3
    p = ConnectionProfile(h=3.0, alpha=1.0)
    rep = area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.0))
    assert rep.second_derivative == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_deficit_matches_quadratic_model_at_small_eps():
    p = ConnectionProfile(h=3.0, alpha=1.0)
    eps = 0.05
    rep = area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=eps))
    # deficit ~ (1/2) * second_derivative * eps^2 = -eps^2/6
    model = -eps * eps / 6.0
    assert rep.deficit < 0
    assert rep.deficit == pytest.approx(model, rel=0.2)


def test_deficit_even_in_construction():
    # the construction only admits eps >= 0; oddness is ruled out by the
    # quadratic leading term, checked by halving eps and comparing ratios
    p = ConnectionProfile(h=3.0, alpha=1.0)
    d1 = area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.02)).deficit
    d2 = area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.01)).deficit
    assert d1 / d2 == pytest.approx(4.0, rel=0.02)


def test_deficit_fd_second_derivative():
    p = ConnectionProfile(h=3.0, alpha=1.0)

    def d(eps):
        return area_deficit(CompetitorSpec(a=1.0, b=1.0, profile=p,
                                           epsilon=eps)).deficit

    step = 1e-3
    fd = (d(2 * step) - 2 * d(step) + d(0.0)) / (step * step)
    assert fd == pytest.approx(-1.0 / 3.0, abs=1e-5)


def test_deficit_negative_on_grid_for_all_pyramids():
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            profile = feasible_params(a)
            eps, rep = epsilon_star(deficit_sweep(a, b, profile, grid=32))
            assert rep == area_deficit(CompetitorSpec(a=a, b=b,
                                                      profile=profile,
                                                      epsilon=eps))
            assert rep.deficit < -1e-9


def test_epsilon_star_respects_grid():
    profile = feasible_params(1.0)
    eps, _ = epsilon_star(deficit_sweep(1.0, 1.0, profile, grid=8))
    assert eps in {0.5 * i / 8 for i in range(1, 9)}


def test_epsilon_star_infeasible_profile():
    # energy(alpha=1, h=1) = 3/2 > a^2 = 1: positive curvature, so the
    # first grid point already has nonnegative deficit
    bad = ConnectionProfile(h=1.0, alpha=1.0)
    assert epsilon_star(deficit_sweep(1.0, 1.0, bad, grid=16)) is None


def test_deficit_sweep_grid_validation():
    for grid in (0, -1, 2.5):
        with pytest.raises(ValueError, match="grid"):
            next(deficit_sweep(1.0, 1.0, feasible_params(1.0), grid=grid))


def test_support_radius_formula():
    p = ConnectionProfile(h=4.0, alpha=1.0)
    rep = area_deficit(CompetitorSpec(a=1.0, b=2.0, profile=p, epsilon=0.25))
    expect = math.sqrt(25.0 * (1.0 + 0.25) + 0.0625)
    assert rep.support_radius == pytest.approx(expect, rel=1e-14)


def test_mesh_area_converges_order_two():
    p = feasible_params(1.0)
    spec = CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.2)
    rep = area_deficit(spec)
    target = rep.A_eps + rep.ruled_area
    errs = []
    for res in (16, 32, 64):
        m = export_competitor_mesh(spec, res)
        errs.append(abs(surface_area(m) - target))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 4.0 * 0.7 <= r1 <= 4.0 * 1.3
    assert 4.0 * 0.7 <= r2 <= 4.0 * 1.3


def test_mesh_flat_case_matches_plane_area():
    # eps=0: the competitor is the original flat section plus trapezium
    p = ConnectionProfile(h=2.0, alpha=1.0)
    spec = CompetitorSpec(a=1.0, b=1.0, profile=p, epsilon=0.0)
    m = export_competitor_mesh(spec, 64)
    assert np.all(m.vertices[:, 0] == 0.0)
    target = 1.0 + trapezium_area(1.0, 2.0)
    assert surface_area(m) == pytest.approx(target, rel=1e-4)


def test_mesh_resolution_validation():
    p = ConnectionProfile(h=1.0, alpha=1.0)
    spec = CompetitorSpec(a=1.0, b=1.0, profile=p)
    with pytest.raises(ValueError):
        export_competitor_mesh(spec, 1)


def test_spec_validation():
    p = ConnectionProfile(h=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        CompetitorSpec(a=-1.0, b=1.0, profile=p)
    with pytest.raises(ValueError):
        CompetitorSpec(a=2.0, b=1.0, profile=p, epsilon=0.6)
    with pytest.raises(TypeError):
        CompetitorSpec(a=1.0, b=1.0, profile=None)
