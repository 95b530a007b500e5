import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from khintchine_lab import excursion, flows, ifs, lattices


def test_walk_heights_match_direct_lattice_heights():
    # incremental walker vs full matrix product + certified SVP.  The direct
    # route loses e^{2 t_n} eps absolutely, so the comparison is only sharp
    # for n small; depth is covered by the dual-route walker test below.
    rng = np.random.default_rng(21)
    for d in (1, 2):
        sys = ifs.cantor_product(d)
        steps = flows.walk_steps(sys)
        for _ in range(10):
            word = tuple(int(s) for s in rng.integers(0, sys.alphabet_size, 10))
            x = rng.random(d)
            hs = excursion.walk_heights(sys, word, start=x)
            for n in (1, 3, 7, 10):
                g = flows.walk_matrix(steps, word[:n]) @ flows.unipotent_element(x)
                assert hs[n - 1] == pytest.approx(lattices.height(g), abs=1e-8)


def test_walk_heights_dual_route():
    # the inline Lagrange walker and the generic LLL walker are independent
    # reduction routes and must agree pointwise.  Comparison stays inside the
    # Lyapunov horizon (rounding amplifies by 1/kappa per step, so any float
    # route is a pseudo-orbit past n ~ 53 log2/log3); many words instead.
    from khintchine_lab.excursion import _step_inverses, _Walker2, _WalkerN

    sys = ifs.cantor_product(1)
    rng = np.random.default_rng(13)
    flat_steps = _step_inverses(sys)
    mats = [np.array(s).reshape(2, 2) for s in flat_steps]
    for _ in range(30):
        word = rng.integers(0, 2, size=14)
        basis = np.eye(2)
        basis[0, 1] = rng.random()
        w2 = _Walker2(basis)
        wn = _WalkerN(basis)
        for s in word:
            w2.apply(flat_steps[s])
            wn.apply(mats[s])
            assert w2.height() == pytest.approx(wn.height(), abs=1e-7)


def test_walker_lagrange_guard_raises(monkeypatch):
    from khintchine_lab.excursion import _Walker2

    basis = np.array([[89.0, 1.0], [144.0, 0.5]])
    _Walker2(basis)
    monkeypatch.setattr(excursion, "LAGRANGE_ITERATION_LIMIT", 2)
    with pytest.raises(lattices.ReductionGuardError):
        _Walker2(basis)


def test_walk_heights_survive_long_trajectories():
    # direct matrices overflow near t ~ 1465; the reduced walker must not
    sys = ifs.cantor_product(1)
    rng = np.random.default_rng(5)
    word = rng.integers(0, 2, size=6000)
    hs = excursion.walk_heights(sys, word)
    assert np.all(np.isfinite(hs))
    assert np.all(hs >= -1e-9)


def test_diagonal_heights_match_direct():
    # t_36 stays below 10 for d <= 3, inside the faithful range 2t < 53 log 2
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        x = rng.random(d)
        grid = excursion.diagonal_heights(x, 1 / 3, 12, refine=3)
        spacing = flows.diag_time(1 / 3, d) / 3
        for j in (0, 1, 5, 20, 36):
            g = flows.diagonal_point(x, j * spacing)
            assert grid[j] == pytest.approx(lattices.height(g), abs=1e-9)


def test_heights_are_nonnegative():
    # unimodular sup-norm shortest vector is always <= 1
    rng = np.random.default_rng(30)
    for d in (1, 2):
        grid = excursion.diagonal_heights(rng.random(d), 1 / 3, 50, refine=2)
        assert np.all(grid >= -1e-12)


def test_return_times_are_one_indexed():
    w = lattices.CompactWindow(1.0)
    heights = np.array([0.5, 2.0, 0.7, 3.0, 0.2])
    rets = excursion.return_times(heights, w)
    np.testing.assert_array_equal(rets, [1, 3, 5])
    np.testing.assert_array_equal(excursion.return_times(heights, w, max_steps=3), [1, 3])


def test_excursions_segmentation():
    recs = excursion.excursions([2, 3, 7])
    assert [r.length for r in recs] == [2, 1, 4]
    assert [r.start_step for r in recs] == [0, 2, 3]
    assert [r.end_step for r in recs] == [2, 3, 7]
    assert all(r.flavor == "walk" for r in recs)
    assert recs[0].index == 0  # sigma^0 ends at the first return


def test_excursions_reject_bad_returns():
    with pytest.raises(ValueError):
        excursion.excursions([0, 2])
    with pytest.raises(ValueError):
        excursion.excursions([3, 2])


def test_diagonal_excursions_cover_trajectory():
    x = np.array([1.0 / 7.0])
    recs = excursion.diagonal_excursions(x, 1 / 3, lattices.CompactWindow(2.0), 400)
    assert recs, "trajectory of a rational never returns; 1/7 must"
    # segments tile [0, last return] without gaps
    for a, b in zip(recs, recs[1:]):
        assert a.end_step == b.start_step
    assert all(r.peak is not None for r in recs)


def test_diagonal_peaks_dominate_grid():
    # peak is a certified upper bound: recompute on a finer grid and compare.
    # n_max kept inside the float-faithful range; the time-t lattice problem
    # needs ~2t/log 2 bits, so doubles resolve d=1 heights only to t ~ 18.
    x = np.array([math.sqrt(2) - 1])
    window = lattices.CompactWindow(1.5)
    recs = excursion.diagonal_excursions(x, 1 / 3, window, 25, grid_refine=2)
    assert recs
    fine = excursion.diagonal_heights(x, 1 / 3, 25, refine=10)
    for r in recs:
        lo, hi = r.start_step * 10, r.end_step * 10
        assert r.peak >= float(fine[lo : hi + 1].max()) - 1e-9


def test_growth_bound_holds_on_samples():
    sys = ifs.cantor_product(1)
    window = lattices.CompactWindow(2.5)
    pts = ifs.sample_fractal(sys, 10, seed=14)
    slack = excursion.lipschitz_slack(1 / 3, 1, 4)
    for x in pts:
        recs = excursion.diagonal_excursions(x, 1 / 3, window, 500)
        bad = excursion.growth_bound_check(recs, window, 1 / 3, 1, peak_slack=slack)
        assert bad == []


def test_growth_bound_flags_fabricated_violation():
    window = lattices.CompactWindow(1.0)
    fake = excursion.ExcursionRecord(
        index=0, start_step=0, end_step=2, length=2, peak=50.0, flavor="diagonal"
    )
    bad = excursion.growth_bound_check([fake], window, 1 / 3, 1)
    assert bad == [fake]


def test_rate_budget_closed_form_fields():
    rb = excursion.rate_budget(1 / 3, 1, varpi=math.log(2) / math.log(3), log_Cc=0.0, eps=0.5, m=12)
    assert rb.rho == pytest.approx(0.75)
    assert rb.gamma_max == pytest.approx(2 * math.log(2) / math.log(3))
    # delta_top = m rho varpi (-log kappa)/(d+1)
    delta_top = 12 * 0.75 * rb.varpi * math.log(3) / 2
    assert rb.eta == pytest.approx(min(1.0, delta_top / 2))
    assert rb.delta == pytest.approx(delta_top - rb.eta)
    assert rb.meets_target


@given(
    st.floats(0.05, 0.9),
    st.integers(1, 4),
    st.floats(0.05, 0.95),
    st.floats(0.0, 5.0),
    st.floats(1.0, 4.0),
)
@settings(max_examples=120, deadline=None)
def test_rate_budget_threshold_guarantee(kappa, d, eps, log_cc, m_factor):
    # theorem under test: m >= m_threshold implies coefficient >= (1-eps) gamma_max
    varpi = min(d, d * math.log(2) / math.log(3))
    probe = excursion.rate_budget(kappa, d, varpi=varpi, log_Cc=log_cc, eps=eps, m=1000000)
    m = max(1, math.ceil(probe.m_threshold * m_factor))
    try:
        rb = excursion.rate_budget(kappa, d, varpi=varpi, log_Cc=log_cc, eps=eps, m=m)
    except excursion.InfeasibleBudgetError:
        assume(False)
        return
    if m >= rb.m_threshold:
        assert rb.meets_target
        assert rb.coefficient >= (1 - eps) * rb.gamma_max - 1e-12


def test_rate_budget_rejects_bad_inputs():
    with pytest.raises(ValueError):
        excursion.rate_budget(1 / 3, 1, varpi=0.5, log_Cc=-1.0, eps=0.5, m=5)
    with pytest.raises(ValueError):
        excursion.rate_budget(1 / 3, 1, varpi=0.5, log_Cc=0.0, eps=1.5, m=5)
    with pytest.raises(excursion.InfeasibleBudgetError):
        excursion.rate_budget(1 / 3, 1, varpi=0.5, log_Cc=50.0, eps=0.5, m=1)


def test_tail_report_domination_and_shape():
    sys = ifs.cantor_product(1)
    rep = excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=30, steps=800, seed=3)
    assert rep.empirical_tail.shape == rep.thresholds.shape
    assert np.all(rep.empirical_tail <= rep.chebyshev_bound + 1e-12)
    assert rep.empirical_tail[0] == pytest.approx(1.0)
    assert np.all(np.diff(rep.empirical_tail) <= 1e-15)
    assert rep.n_samples > 0


def test_tail_report_deterministic():
    sys = ifs.cantor_product(1)
    a = excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=10, steps=400, seed=8)
    b = excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=10, steps=400, seed=8)
    np.testing.assert_array_equal(a.empirical_tail, b.empirical_tail)
    assert a.theta_hat == b.theta_hat


def test_tail_report_needs_window_visits():
    sys = ifs.cantor_product(1)
    # level so deep that no walk ever reaches the window
    with pytest.raises(excursion.NoWindowDataError):
        excursion.tail_report(sys, lattices.CompactWindow(-50.0), walks=3, steps=50, seed=0)


def test_walk_and_matrix_agree_through_window_logic():
    # in_window on the full matrix product equals thresholding walk_heights
    sys = ifs.cantor_product(1)
    steps = flows.walk_steps(sys)
    rng = np.random.default_rng(77)
    word = tuple(int(s) for s in rng.integers(0, 2, 30))
    window = lattices.CompactWindow(1.2)
    hs = excursion.walk_heights(sys, word)
    for n in range(1, 31):
        g = flows.walk_matrix(steps, word[:n])
        assert lattices.in_window(g, window) == (hs[n - 1] <= window.level + 1e-12)
