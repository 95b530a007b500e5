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
    # the lockstep Lagrange kernel and the generic LLL walker are independent
    # reduction routes and must agree pointwise.  Comparison stays inside the
    # Lyapunov horizon (rounding amplifies by 1/kappa per step, so any float
    # route is a pseudo-orbit past n ~ 53 log2/log3); many words instead.
    from khintchine_lab.excursion import _step_inverses, _WalkerN

    sys = ifs.cantor_product(1)
    rng = np.random.default_rng(13)
    mats = _step_inverses(sys)
    words = rng.integers(0, 2, size=(30, 14))
    starts = rng.random((30, 1))
    hs = excursion.walk_heights(sys, words, start=starts)
    for heights, word, x in zip(hs, words, starts):
        basis = np.eye(2)
        basis[0, 1] = x[0]
        wn = _WalkerN(basis)
        for h, s in zip(heights, word):
            wn.apply(mats[s])
            assert h == pytest.approx(wn.height(), abs=1e-7)


def _passes_needed(monkeypatch, sys, word, start):
    """Smallest Lagrange pass limit under which the walk runs alone."""
    for limit in range(1, lattices.LAGRANGE_ITERATION_LIMIT + 1):
        monkeypatch.setattr(excursion, "LAGRANGE_ITERATION_LIMIT", limit)
        try:
            excursion.walk_heights(sys, word, start=start)
        except lattices.ReductionGuardError:
            continue
        return limit
    raise AssertionError("walk needs more passes than the module limit")


def _scalar_walk(sys, word, x):
    """Reference loop: the plain-float 2x2 walker, one step at a time."""
    steps = [m.tolist() for m in excursion._step_inverses(sys)]
    w = excursion._Walker2([[1.0, x], [0.0, 1.0]])
    out = []
    for s in word:
        (s00, s01), (s10, s11) = steps[s]
        w.b00, w.b01, w.b10, w.b11 = (
            w.b00 * s00 + w.b01 * s10,
            w.b00 * s01 + w.b01 * s11,
            w.b10 * s00 + w.b11 * s10,
            w.b10 * s01 + w.b11 * s11,
        )
        w._reduce()
        out.append(w.height())
    return out


def test_lockstep_rows_match_walks_run_alone(monkeypatch):
    # a batch must give every row the floats of that row alone and of the
    # scalar loop: starts with exact half-integer Lagrange ties (round half
    # to even), a constant word, rows whose worst step needs different
    # numbers of passes
    sys = ifs.cantor_product(1)
    rng = np.random.default_rng(31)
    starts = np.array([[0.0], [0.5], [2.5], [-1.5], [7.25], [1 / 3], [rng.random()], [1e6 * rng.random()]])
    words = rng.integers(0, 2, size=(starts.shape[0], 120))
    words[1] = 1
    batch = excursion.walk_heights(sys, words, start=starts)
    assert batch.shape == words.shape
    for row, word, x in zip(batch, words, starts):
        np.testing.assert_array_equal(row, excursion.walk_heights(sys, word, start=x))
        np.testing.assert_array_equal(row, _scalar_walk(sys, word, x[0]))
    needed = {_passes_needed(monkeypatch, sys, word[:20], x) for word, x in zip(words, starts)}
    assert len(needed) > 1


def test_walk_heights_rows_at_d2():
    # at d >= 2 the rows of a batch run one after another through _WalkerN
    sys = ifs.cantor_product(2)
    rng = np.random.default_rng(32)
    words = rng.integers(0, sys.alphabet_size, size=(3, 30))
    starts = rng.random((3, 2))
    batch = excursion.walk_heights(sys, words, start=starts)
    for row, word, x in zip(batch, words, starts):
        np.testing.assert_array_equal(row, excursion.walk_heights(sys, word, start=x))


def test_lockstep_reduce_matches_scalar_lagrange():
    # lockstep passes against the scalar loop of _Walker2 (Python's round):
    # exact half-integer ties, skewed bases needing many passes, random ones
    from khintchine_lab.excursion import _lagrange_reduce, _Walker2

    rng = np.random.default_rng(8)
    bases = np.concatenate((
        [[[1.0, 0.0], [2.5, 1.0]], [[1.0, 0.0], [-1.5, 1.0]], [[1.0, 0.0], [0.5, 3.0]]],
        [[[89.0, 1.0], [144.0, 0.5]], [[1.0, 1e-3], [1e4 + 0.5, 0.0]]],
        rng.normal(size=(20, 2, 2)),
        rng.normal(size=(10, 2, 2)) * [[1e3], [1.0]],
    ))
    reduced = _lagrange_reduce(np.moveaxis(bases, 0, -1).copy())
    for k, basis in enumerate(bases):
        w = _Walker2(basis)
        np.testing.assert_array_equal(reduced[..., k], [[w.b00, w.b01], [w.b10, w.b11]])


def test_lockstep_guard_raises(monkeypatch):
    sys = ifs.cantor_product(1)
    words = np.random.default_rng(4).integers(0, 2, size=(5, 40))
    excursion.walk_heights(sys, words)
    monkeypatch.setattr(excursion, "LAGRANGE_ITERATION_LIMIT", 1)
    with pytest.raises(lattices.ReductionGuardError):
        excursion.walk_heights(sys, words)


def test_lockstep_singular_basis_raises():
    # one healthy walk next to one whose rows are equal
    bases = np.array([[[1.0, 0.3], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
    steps = excursion._step_inverses(ifs.cantor_product(1))
    with pytest.raises(ValueError, match="singular"):
        excursion._lagrange_walks(bases, steps, np.zeros((2, 3), dtype=int))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_lockstep_non_finite_coefficient_raises():
    # round() raises on nan and inf, np.rint would carry them on silently
    sys = ifs.cantor_product(1)
    words = np.zeros((3, 5), dtype=int)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            excursion.walk_heights(sys, words, start=[[0.2], [bad], [0.7]])


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


def test_tail_report_rejects_negative_burn_in(tmp_path, capsys):
    # a negative burn-in would count every visit as an anchor
    from khintchine_lab import cli

    sys = ifs.cantor_product(1)
    with pytest.raises(ValueError, match="burn_in"):
        excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=2, steps=50, seed=0, burn_in=-1)
    argv = ["simulate", "--walks", "2", "--steps", "50", "--burn-in", "-1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "burn_in" in capsys.readouterr().err


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
