import math

import mpmath
import numpy as np
import pytest

from khintchine_lab import dani
from khintchine_lab.dani import ApproxFunction, InvalidPsiError, RateFunction


def closed_r(psi, d, t):
    # b = 0 power law only
    return (psi.a - 1.0 / d) * t / (1.0 + psi.a) - math.log(psi.c) / (1.0 + psi.a)


def test_power_log_values():
    psi = ApproxFunction.power_log(2.0, 1.5)
    assert psi(1.0) == pytest.approx(2.0)
    assert psi(4.0) == pytest.approx(2.0 * 4.0**-1.5)
    # frozen below the domain edge
    assert psi(0.25) == pytest.approx(psi(1.0))
    logged = ApproxFunction.power_log(1.0, 1.0, b=2.0)
    assert logged(10.0) == pytest.approx(0.1 * math.log(math.e + 10.0) ** -2.0)


def test_psi_validation():
    with pytest.raises(ValueError):
        ApproxFunction.power_log(-1.0, 1.0)
    with pytest.raises(ValueError):
        ApproxFunction.power_log(1.0, -0.5)
    with pytest.raises(ValueError):
        ApproxFunction.power_log(1.0, 1.0, b=-1.0)
    with pytest.raises(ValueError, match="domain_start"):
        ApproxFunction.power_log(1.0, 1.0, x0=0.0)


@pytest.mark.parametrize("field", ["c", "a", "b", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_psi_rejects_non_finite_parameters(field, value):
    params = {"c": 1.0, "a": 1.0, "b": 1.0, "x0": 2.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        ApproxFunction.power_log(**params)


def test_t0_matches_defining_time():
    # t0 is where the balance holds at the domain edge x0, so the closed form
    # must match it and the edge value of r must satisfy t0 - r(t0) = log x0
    for c, a, x0, d in [(1.0, 1.5, 1.0, 1), (2.0, 0.7, 3.0, 2), (0.5, 2.0, 1.0, 3)]:
        psi = ApproxFunction.power_log(c, a, x0=x0)
        t0 = dani.t0_of(psi, d)
        r0 = dani.r_from_psi(psi, d, t0)
        assert t0 - r0 == pytest.approx(math.log(x0), abs=1e-9)
    assert dani.t0_of(ApproxFunction.power_log(1.0, 1.5), 1) == pytest.approx(0.0)


def test_r_closed_form_power_law():
    for d in (1, 2, 3):
        for a in (0.3, 1.0 / d, 2.5):
            for c in (0.5, 1.0, 3.0):
                psi = ApproxFunction.power_log(c, a)
                t0 = dani.t0_of(psi, d)
                ts = np.linspace(t0, t0 + 30.0, 40)
                rs = dani.r_from_psi(psi, d, ts)
                want = np.array([closed_r(psi, d, t) for t in ts])
                assert np.max(np.abs(rs - want)) < 1e-9


def test_critical_psi_gives_zero_rate():
    for d in (1, 2, 3):
        psi = ApproxFunction.power_log(1.0, 1.0 / d)
        ts = np.linspace(dani.t0_of(psi, d), 40.0, 25)
        assert np.max(np.abs(dani.r_from_psi(psi, d, ts))) < 1e-9


def test_r_satisfies_balance_without_closed_form():
    # b > 0 has no closed form for r: check the defining equation directly
    psi = ApproxFunction.power_log(0.8, 1.2, b=1.5, x0=2.0)
    d = 2
    for t in np.linspace(dani.t0_of(psi, d) + 0.5, 8.0, 9):
        r = dani.r_from_psi(psi, d, t)
        assert psi(math.exp(t - r)) == pytest.approx(math.exp(-t / d - r), rel=1e-8)


def test_r_rejects_t_below_domain():
    psi = ApproxFunction.power_log(1.0, 1.5)
    with pytest.raises(ValueError, match="below"):
        dani.r_from_psi(psi, 1, dani.t0_of(psi, 1) - 0.1)


def test_r_rejects_non_finite_t():
    psi = ApproxFunction.power_log(1.0, 1.5)
    for t in (math.nan, math.inf, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(ValueError, match="finite"):
            dani.r_from_psi(psi, 1, t)


def test_r_vectorized_matches_scalar():
    psi = ApproxFunction.power_log(1.3, 0.9)
    ts = np.array([1.0, 2.0, 5.0, 17.0])
    rs = dani.r_from_psi(psi, 1, ts)
    assert rs.shape == ts.shape
    for t, r in zip(ts, rs):
        scalar = dani.r_from_psi(psi, 1, float(t))
        assert type(scalar) is float and scalar == r
    assert dani.r_from_psi(psi, 1, np.empty((0, 3))).shape == (0, 3)


def _r_scalar(psi, d, t):
    # the scalar reference of the lockstep bisection, one t at a time
    # G(r) = log psi(e^{t-r}) + t/d + r has G' >= 1, so the root lies between
    # 0 and -G(0), widened by the slack that covers the rounding of G(0)
    def g(r):
        return float(psi.log_eval(t - r)) + t / d + r

    g0 = float(psi.log_eval(t)) + t / d
    slack = 1.0 + 2.0**-40 * abs(g0)
    lo, hi = min(-g0, 0.0) - slack, max(-g0, 0.0) + slack
    while hi - lo > dani.R_INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats wider than the tolerance (|r| >= 512)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    dani._check_balance(psi, d, np.array([t]), np.array([r]))
    return r


# (c, a, b, x0, d): b = 0 and b > 0, x0 = 1 and 5, d = 1..3
LOCKSTEP_FAMILIES = [
    (1.0, 1.5, 0.0, 1.0, 1),
    (2.0, 0.7, 0.0, 5.0, 3),
    (0.8, 1.2, 1.5, 5.0, 2),
    (1.0, 1.0, 1.0, 5.0, 2),
    (1.3, 0.2, 2.0, 5.0, 3),
]


@pytest.mark.parametrize("c, a, b, x0, d", LOCKSTEP_FAMILIES)
def test_lockstep_r_is_the_scalar_r_bit_for_bit(c, a, b, x0, d):
    psi = ApproxFunction.power_log(c, a, b, x0)
    t0 = dani.t0_of(psi, d)
    ts = np.concatenate([[t0, t0 + 1e-6], np.linspace(t0, t0 + 40.0, 301)])
    lockstep = dani.r_from_psi(psi, d, ts)
    scalar = np.array([_r_scalar(psi, d, t) for t in ts.tolist()])
    assert np.array_equal(lockstep.view(np.int64), scalar.view(np.int64))


def test_lockstep_lanes_are_independent():
    psi = ApproxFunction.power_log(0.8, 1.2, b=1.5, x0=5.0)
    d = 2
    t0 = dani.t0_of(psi, d)
    ts = np.linspace(t0, t0 + 30.0, 97)
    rs = dani.r_from_psi(psi, d, ts)
    assert np.array_equal(dani.r_from_psi(psi, d, ts[::-1]), rs[::-1])
    assert np.array_equal(dani.r_from_psi(psi, d, ts[5:60:7]), rs[5:60:7])
    assert np.array_equal(dani.r_from_psi(psi, d, ts.reshape(1, 97)), rs.reshape(1, 97))


def test_residual_failure_names_first_failing_t():
    # psi(x) = x^(1/2) (a = -1/2, past the constructor's check) has G' = 1/2,
    # so the root r = -3t lies outside the bracket between 0 and -G(0) = -3t/2
    # (widened by 1) once t > 2/3: there the bisection ends at the bracket's
    # edge, a genuinely wrong r
    psi = ApproxFunction.power_log(1.0, 0.0)
    object.__setattr__(psi, "a", -0.5)
    with pytest.raises(InvalidPsiError, match="residual .* at t=3$"):
        dani.r_from_psi(psi, 1, np.array([0.5, 3.0, 0.2, 2.0]))
    with pytest.raises(InvalidPsiError, match="residual .* at t=2$"):
        dani.r_from_psi(psi, 1, 2.0)
    with pytest.raises(InvalidPsiError, match="residual .* at t=2$"):
        _r_scalar(psi, 1, 2.0)
    assert dani.r_from_psi(psi, 1, np.array([0.5, 0.2])) == pytest.approx([-1.5, -0.6], rel=1e-13)
    # psi = 1 at d = 1 gives r = -t; at t = 1e40 an ulp of r is about 2e24, so
    # e^(-t-r) overflows, which fails the check as well
    with pytest.raises(InvalidPsiError, match="residual inf at t=1e\\+40$"):
        dani.r_from_psi(ApproxFunction.power_log(1.0, 0.0), 1, 1e40)


def test_residual_is_judged_relative_to_psi():
    # r right to the bisection's spacing passes wherever psi is large (psi =
    # 1e6 x^-3 near its domain edge t0 = -6.9, constant psi = 33 and 100) or
    # an ulp of r is above 1e-13 (|r| >= 512)
    psi = ApproxFunction.power_log(1e6, 3.0)
    ts = np.array([50.0, -5.0, 100.0, -6.0])
    want = [closed_r(psi, 1, t) for t in ts.tolist()]
    assert dani.r_from_psi(psi, 1, ts) == pytest.approx(want, rel=1e-13)
    for c in (33.0, 100.0):
        psi = ApproxFunction.power_log(c, 0.0)
        ts = np.linspace(dani.t0_of(psi, 1), 60.0, 2001)
        assert dani.r_from_psi(psi, 1, ts) == pytest.approx(-ts - math.log(c), rel=1e-13, abs=1e-13)
    psi = ApproxFunction.power_log(2.0, 0.0)
    assert dani.r_from_psi(psi, 1, 1e5) == pytest.approx(-1e5 - math.log(2.0), rel=1e-15)


def test_nan_residual_fails_both_routes():
    psi = ApproxFunction.power_log(1.0, 1.5)
    object.__setattr__(psi, "c", math.nan)  # past the constructor's check
    with pytest.raises(InvalidPsiError, match="residual nan"):
        _r_scalar(psi, 1, 2.0)
    with pytest.raises(InvalidPsiError, match="residual nan"):
        dani._r_lockstep(psi, 1, np.array([2.0, 3.0]))


def test_r_beyond_float_resolution_of_the_tolerance():
    # for |r| >= 512 adjacent floats are wider than R_INTERVAL_TOL; the
    # bisection stops there instead of looping forever
    psi = ApproxFunction.power_log(1.0, 3.0)
    assert dani.r_from_psi(psi, 1, 2000.0) == pytest.approx(1000.0, rel=1e-15)
    ts = np.array([2000.0, 3000.0, 5.0, 1e12, 1e300])
    assert dani.r_from_psi(psi, 1, ts) == pytest.approx(ts / 2.0, rel=1e-15)


def test_round_trip_psi_r_psi():
    for c, a, d in [(1.0, 1.5, 1), (2.0, 0.8, 2), (0.7, 1.0, 1)]:
        psi = ApproxFunction.power_log(c, a)
        rate = RateFunction(psi, d)
        t0 = rate.t_start
        x_min = math.exp(t0 - float(rate(t0)))
        for x in np.geomspace(max(1.0, x_min) * 1.01, 1e8, 12):
            back = dani.psi_from_r(rate, float(x))
            assert back == pytest.approx(psi(float(x)), rel=1e-8)


def test_psi_from_r_beyond_float_resolution_of_the_tolerance():
    # x = 1e200 puts t near 576, where adjacent floats are wider than
    # R_INTERVAL_TOL; the bisection on t stops there instead of looping forever
    psi = ApproxFunction.power_log(1.0, 1.5)
    back = dani.psi_from_r(RateFunction(psi, 1), 1e200)
    assert back == pytest.approx(psi(1e200), rel=1e-8)


def test_psi_from_r_sends_each_round_to_r_in_one_call(monkeypatch):
    # one r call at t0, one at the bracket's upper end, one per round of 63
    # interior points and one at the root: 1 + 1 + 9 + 1 at x = 1e200, where
    # t is near 576.  At a + b = 10 the slope bound lets the bracket reach 11
    # times as far, which costs one round more.
    calls = []
    r_from_psi = dani.r_from_psi

    def counted(psi, d, t):
        calls.append(np.size(t))
        return r_from_psi(psi, d, t)

    monkeypatch.setattr(dani, "r_from_psi", counted)
    for c, a, b, d, most_far in [
        (1.0, 1.5, 0.0, 1, 12), (0.8, 1.2, 1.5, 2, 12), (2.0, 0.0, 10.0, 2, 13)
    ]:
        rate = RateFunction(ApproxFunction.power_log(c, a, b), d)
        for x, most in [(3.0, 11), (1e8, 12), (1e200, most_far)]:
            calls.clear()
            assert dani.psi_from_r(rate, x) == pytest.approx(rate.psi(x), rel=1e-12)
            assert len(calls) <= most
            assert max(calls) == 2**dani._T_LEVELS - 1


def test_psi_from_r_rejects_x_below_edge():
    psi = ApproxFunction.power_log(1.0, 1.5, x0=10.0)
    rate = RateFunction(psi, 1)
    with pytest.raises(ValueError, match="domain edge"):
        dani.psi_from_r(rate, 1.0)


def test_rate_metadata_from_power_log():
    psi = ApproxFunction.power_log(1.0, 1.5, b=1.0)
    rate = RateFunction(psi, 1)
    assert rate.slope == pytest.approx((1.5 - 1.0) / 2.5)
    assert rate.log_coeff == pytest.approx(1.0 / 2.5)


def test_monotonicity_guard(monkeypatch):
    psi = ApproxFunction.power_log(1.0, 2.0)
    rate = RateFunction(psi, 1)
    assert rate.check_monotonicity()
    # no power-log psi breaks the guard, so the rate it reads is swapped out
    # t - r decreasing
    monkeypatch.setattr(dani, "r_from_psi", lambda psi, d, t: 2.0 * t)
    with pytest.raises(ValueError, match="increasing"):
        rate.check_monotonicity(span=9.0, n=50)
    # t/d + r decreasing
    monkeypatch.setattr(dani, "r_from_psi", lambda psi, d, t: -2.0 * t)
    with pytest.raises(ValueError, match="decreases"):
        rate.check_monotonicity(span=9.0, n=50)


def test_series_classification_power_laws():
    # d = 1, alpha = 1: sum psi(q) converges iff a > 1, with the borderline
    # a = 1 decided by the log power
    def verdict(*args, **kwargs):
        return dani.classify_khintchine_series(ApproxFunction.power_log(*args, **kwargs), 1, 1.0)

    assert verdict(1.0, 2.0) == "converges"
    assert verdict(1.0, 0.5) == "diverges"
    assert verdict(1.0, 1.0) == "diverges"
    assert verdict(1.0, 1.0, b=2.0) == "converges"
    for bad in (0.0, math.nan, math.inf):  # nan passes "alpha <= 0"
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            dani.classify_khintchine_series(ApproxFunction.power_log(1.0, 1.0), 1, bad)


def test_rate_series_matches_slope_sign():
    for a, want in [(2.0, "converges"), (0.4, "diverges")]:
        rate = RateFunction(ApproxFunction.power_log(1.0, a), 1)
        assert dani.classify_rate_series(rate, 2.0) == want
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            dani.classify_rate_series(rate, bad)


def test_equivalence_grid_agreement():
    # the two series tests must give the same answer across regimes,
    # including the critical exponent a = 1/d
    for a in (0.5, 1.0, 2.0):
        for alpha in (0.3, 0.6, 0.9):
            rep = dani.equivalence_check(ApproxFunction.power_log(1.0, a), 1, alpha)
            assert rep.agree
            assert rep.q0_agree
            assert rep.gamma == pytest.approx(2.0 * alpha)


def test_equivalence_ratio_for_affine_rate():
    # substitution x = e^(t - r(t)) is exact for affine r: partial integrals
    # must be in the constant ratio 1 - slope at every truncation
    psi = ApproxFunction.power_log(1.0, 1.5)
    rep = dani.equivalence_check(psi, 1, 1.0)
    assert np.allclose(rep.ratios, 1.0 - 0.2, rtol=1e-6)
    assert np.all(np.diff(rep.i_psi) > 0.0)
    assert rep.truncations == (10.0, 20.0, 40.0, 60.0)
    with pytest.raises(ValueError, match="truncation"):
        dani.equivalence_check(psi, 1, 1.0, grid=(0.0,))
    # an empty grid has no partial to compare; it fails by name, not in max()
    for grid in ((), []):
        with pytest.raises(ValueError, match="truncation grid is empty"):
            dani.equivalence_check(psi, 1, 1.0, grid=grid)


# (c, a, b, x0, d): b = 0 and b > 0, d = 1..3, x0 = 1 and 5
PARTIAL_FAMILIES = [
    (1.0, 0.5, 0.0, 1.0, 1),
    (1.0, 1.0, 1.0, 1.0, 2),
    (2.0, 0.3, 0.0, 5.0, 3),
    (0.5, 0.7, 2.0, 5.0, 1),
    (1.0, 1.5, 0.0, 5.0, 2),
    (1.0, 1.0 / 3.0, 1.0, 5.0, 3),
]


def test_gauss_legendre_table():
    nodes, weights = dani._GL_NODES, dani._GL_WEIGHTS
    n = nodes.size
    assert n == 20
    assert np.all(np.diff(nodes) > 0.0) and np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert abs(math.fsum(weights.tolist()) - 2.0) <= 4e-16
    # each node is the rounded root of P_n and each weight 2/((1 - x^2) P_n'(x)^2)
    # there, recomputed by mpmath's own root finder and Legendre function
    with mpmath.workdps(50):
        for x, w in zip(nodes.tolist(), weights.tolist()):
            root = mpmath.findroot(lambda z: mpmath.legendre(n, z), mpmath.mpf(x))
            slope = n * (root * mpmath.legendre(n, root) - mpmath.legendre(n - 1, root)) / (root**2 - 1)
            assert float(root) == x
            assert float(2 / ((1 - root**2) * slope**2)) == w
    # exact for every degree up to 2n - 1: on [0, 1] the integral of x^k is 1/(k+1)
    half_weights = (0.5 * weights).tolist()
    points = (0.5 * nodes + 0.5).tolist()
    for k in range(2 * n):
        got = math.fsum(w * x**k for w, x in zip(half_weights, points))
        assert got == pytest.approx(1.0 / (k + 1), rel=4e-15, abs=0.0)
    # and not for x^(2n): on [-1, 1] it misses by the n-point error term
    miss = 2.0 / (2 * n + 1) - math.fsum(w * x ** (2 * n) for w, x in zip(weights, nodes))
    error_term = 2 ** (2 * n + 1) * math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 2)
    assert miss == pytest.approx(error_term, rel=1e-3)


@pytest.mark.parametrize("c,a,b,x0,d", PARTIAL_FAMILIES)
def test_partial_integrals_match_tanh_sinh(c, a, b, x0, d):
    # the same two integrands, integrated by mpmath's tanh-sinh quadrature
    psi = ApproxFunction.power_log(c, a, b, x0)
    alpha = 0.7
    rep = dani.equivalence_check(psi, d, alpha)
    rate = RateFunction(psi, d)
    t_edges = [rate.t_start, *rep.truncations]
    u_edges = [t - rate(t) for t in t_edges]
    gamma = rep.gamma
    i_r = np.cumsum([
        float(mpmath.quad(lambda t: mpmath.exp(-gamma * rate(float(t))), [lo, hi]))
        for lo, hi in zip(t_edges, t_edges[1:])
    ])
    i_psi = np.cumsum([
        float(mpmath.quad(lambda u: mpmath.exp(u * alpha / d + alpha * psi.log_eval(float(u))), [lo, hi]))
        for lo, hi in zip(u_edges, u_edges[1:])
    ])
    np.testing.assert_allclose(rep.i_r, i_r, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.i_psi, i_psi, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c,a,x0", [(1.0, 1.5, 1.0), (0.5, 0.3, 5.0), (3.0, 1.0, 2.0)])
def test_partials_ratio_is_one_minus_slope_for_affine_rate(c, a, x0, d):
    # b = 0: r is affine, so the substitution x = e^(t - r) is exact and the
    # partials stand in the ratio 1 - slope at every truncation, odd ones too
    psi = ApproxFunction.power_log(c, a, 0.0, x0)
    slope = (a - 1.0 / d) / (1.0 + a)
    for alpha in (0.4, 1.0, 2.5):
        rep = dani.equivalence_check(psi, d, alpha, grid=(7.3, 10.0, 25.5, 60.0))
        np.testing.assert_allclose(rep.ratios, 1.0 - slope, rtol=1e-12, atol=0.0)


def test_partials_share_panels_across_truncations():
    # each truncation alone gives the same partial as inside a grid of others
    rng = np.random.default_rng(19)
    for _ in range(20):
        c, a, x0 = np.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 3.0), rng.uniform(1.0, 5.0)
        b = rng.uniform(0.0, 2.0) * rng.integers(2)  # b = 0 about half the time
        psi = ApproxFunction.power_log(c, a, b, x0)
        d, alpha = int(rng.integers(1, 4)), rng.uniform(0.3, 2.0)
        grid = tuple((dani.t0_of(psi, d) + rng.uniform(0.5, 40.0, 3)).tolist())
        whole = dani.equivalence_check(psi, d, alpha, grid=grid)
        for i, big_t in enumerate(grid):
            alone = dani.equivalence_check(psi, d, alpha, grid=(big_t,))
            assert alone.i_r[0] == whole.i_r[i]
            assert alone.i_psi[0] == whole.i_psi[i]


def test_equivalence_check_refuses_truncations_past_the_panel_limit(monkeypatch):
    # the limit is checked against each truncation's distance from t0, before
    # any rate call or panel array; a truncation at the limit still runs
    psi = ApproxFunction.power_log(3.0, 1.5)
    t0 = dani.t0_of(psi, 2)
    assert t0 < 0.0
    monkeypatch.setattr(dani, "PANEL_LIMIT", 30)
    dani.equivalence_check(psi, 2, 1.0, grid=(10.0, t0 + 30.0))

    def no_rate(self, t):
        raise AssertionError("rate called")

    monkeypatch.setattr(RateFunction, "__call__", no_rate)
    with pytest.raises(ValueError, match=r"lies 30\.5 unit panels .* past the limit of 30"):
        dani.equivalence_check(psi, 2, 1.0, grid=(10.0, t0 + 30.5))


def test_invalid_psi_error_is_value_error():
    assert issubclass(InvalidPsiError, ValueError)
