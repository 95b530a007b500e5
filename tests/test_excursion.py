import dataclasses
import math
from fractions import Fraction

import mpmath
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
    # the lockstep Lagrange kernel and LLL plus enumeration are independent
    # reduction routes and must agree pointwise.  Comparison stays inside the
    # Lyapunov horizon (rounding amplifies by 1/kappa per step, so any float
    # route is a pseudo-orbit past n ~ 53 log2/log3); many words instead.
    sys = ifs.cantor_product(1)
    rng = np.random.default_rng(13)
    mats = excursion._step_inverses(sys)
    words = rng.integers(0, 2, size=(30, 14))
    starts = rng.random((30, 1))
    hs = excursion.walk_heights(sys, words, start=starts)
    for heights, word, x in zip(hs, words, starts):
        basis = np.eye(2)
        basis[0, 1] = x[0]
        b, _ = lattices.lll_reduce(basis)
        for h, s in zip(heights, word):
            rows, _, mu, norms = lattices._lll((b @ mats[s]).tolist())
            b = np.array(rows)
            delta, _ = lattices._search(rows, mu, norms)
            assert h == pytest.approx(-math.log(delta), abs=1e-7)


# the module's pass limit, read before any test lowers it
LAGRANGE_LIMIT = lattices.LAGRANGE_ITERATION_LIMIT


def _passes_needed(monkeypatch, sys, word, start):
    """Smallest Lagrange pass limit under which the walk runs alone."""
    for limit in range(1, LAGRANGE_LIMIT + 1):
        monkeypatch.setattr(lattices, "LAGRANGE_ITERATION_LIMIT", limit)
        try:
            excursion.walk_heights(sys, word, start=start)
        except lattices.ReductionGuardError:
            continue
        return limit
    raise AssertionError("walk needs more passes than the module limit")


def _scalar_walk(sys, word, x):
    """Reference loop: the plain-float 2x2 kernel, one step at a time."""
    steps = [m.tolist() for m in excursion._step_inverses(sys)]
    b, _ = lattices._lagrange_2x2(1.0, float(x), 0.0, 1.0)
    out = []
    for s in word:
        (s00, s01), (s10, s11) = steps[s]
        b00, b01, b10, b11 = b
        b, _ = lattices._lagrange_2x2(
            b00 * s00 + b01 * s10,
            b00 * s01 + b01 * s11,
            b10 * s00 + b11 * s10,
            b10 * s01 + b11 * s11,
        )
        delta, _ = lattices._sup_2x2(*b)
        out.append(-math.log(delta))
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
    # at d >= 2 the rows of a batch run one after another through LLL
    sys = ifs.cantor_product(2)
    rng = np.random.default_rng(32)
    words = rng.integers(0, sys.alphabet_size, size=(3, 30))
    starts = rng.random((3, 2))
    batch = excursion.walk_heights(sys, words, start=starts)
    for row, word, x in zip(batch, words, starts):
        np.testing.assert_array_equal(row, excursion.walk_heights(sys, word, start=x))


def test_walk_heights_reject_symbols_outside_the_alphabet():
    # d = 1 (lockstep rows) and d = 2 (rows one by one): -1 does not walk
    # with the last map, a float symbol is not truncated, and a batch with
    # one bad row fails as a whole
    for d in (1, 2):
        sys = ifs.cantor_product(d)
        good = ifs.sample_words(sys, 20, 3, np.random.default_rng(d))
        assert good.dtype == np.uint8
        np.testing.assert_array_equal(
            excursion.walk_heights(sys, good), excursion.walk_heights(sys, good.astype(int))
        )
        bad_words = (
            [-1, 0],
            [0.7, 0.0],
            [0, sys.alphabet_size],
            np.array([[0, 1], [0, 255]], dtype=np.uint8),
            np.array([[0, 1], [-1, 0]]),
        )
        for bad in bad_words:
            with pytest.raises(ValueError, match="alphabet|integers"):
                excursion.walk_heights(sys, bad)


def test_k3_kernel_trajectories_are_the_general_loops(monkeypatch):
    # d = 2 orbits and walks on the unrolled k = 3 kernel, then with the
    # general list loop in its place: the same floats at every step
    sys = ifs.cantor_product(2)
    xs = ifs.sample_fractal(sys, 3, seed=23)
    words = np.random.default_rng(23).integers(0, sys.alphabet_size, size=(3, 400))

    def heights():
        orbits = [excursion.diagonal_heights(x, sys.kappa, 200, refine=4) for x in xs]
        return np.concatenate([*orbits, excursion.walk_heights(sys, words).ravel()])

    kernel = heights()
    monkeypatch.setattr(lattices, "_lll_3", lattices._lll_loop)
    monkeypatch.setattr(lattices, "_search_3", lattices._search_loop)
    assert kernel.size == 3 * 801 + 3 * 400
    assert kernel.tobytes() == heights().tobytes()


def test_lockstep_reduce_matches_scalar_lagrange():
    # lockstep passes against the scalar loop (Python's round): exact
    # half-integer ties, skewed bases needing many passes, random ones
    rng = np.random.default_rng(8)
    bases = np.concatenate((
        [[[1.0, 0.0], [2.5, 1.0]], [[1.0, 0.0], [-1.5, 1.0]], [[1.0, 0.0], [0.5, 3.0]]],
        [[[89.0, 1.0], [144.0, 0.5]], [[1.0, 1e-3], [1e4 + 0.5, 0.0]]],
        rng.normal(size=(20, 2, 2)),
        rng.normal(size=(10, 2, 2)) * [[1e3], [1.0]],
    ))
    reduced = lattices._lagrange_reduce(np.moveaxis(bases, 0, -1).copy())
    for k, basis in enumerate(bases):
        rows, _ = lattices._lagrange_2x2(*basis.ravel().tolist())
        np.testing.assert_array_equal(reduced[..., k].ravel(), rows)


def test_lockstep_guard_raises(monkeypatch):
    sys = ifs.cantor_product(1)
    words = np.random.default_rng(4).integers(0, 2, size=(5, 40))
    excursion.walk_heights(sys, words)
    monkeypatch.setattr(lattices, "LAGRANGE_ITERATION_LIMIT", 1)
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


def test_diagonal_lagrange_guard_raises(monkeypatch):
    # along the d=1 ride some steps need a nonzero Lagrange coefficient
    x = np.array([math.sqrt(2) - 1])
    excursion.diagonal_heights(x, 1 / 3, 20)
    monkeypatch.setattr(lattices, "LAGRANGE_ITERATION_LIMIT", 1)
    with pytest.raises(lattices.ReductionGuardError):
        excursion.diagonal_heights(x, 1 / 3, 20)


def test_walks_keep_to_the_certified_dimension_range():
    # d = 6 reduces 7x7 bases, past lattices.DIMENSION_LIMIT; d = 5 runs
    for d, raises in ((5, False), (6, True)):
        sys = ifs.cantor_product(d)
        word = np.arange(3) % sys.alphabet_size
        runs = (
            lambda: excursion.walk_heights(sys, word),
            lambda: excursion.diagonal_heights(np.full(d, 0.25), 1 / 3, 1),
        )
        for run in runs:
            if raises:
                with pytest.raises(ValueError, match="dimension 7 above certified range 6"):
                    run()
            else:
                assert np.all(np.isfinite(run()))


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


def test_excursions_segmentation():
    recs = excursion.excursions([2, 3, 7])
    assert [r.length for r in recs] == [2, 1, 4]
    assert [r.start_step for r in recs] == [0, 2, 3]
    assert [r.end_step for r in recs] == [2, 3, 7]
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
    fake = excursion.ExcursionRecord(index=0, start_step=0, end_step=2, length=2, peak=50.0)
    bad = excursion.growth_bound_check([fake], window, 1 / 3, 1)
    assert bad == [fake]


def test_growth_bound_rejects_a_record_without_peak():
    # a peakless record used to be skipped, so the check passed with nothing checked
    window = lattices.CompactWindow(1.0)
    recs = excursion.excursions([2, 3, 7])
    assert recs and all(r.peak is None for r in recs)
    with pytest.raises(ValueError, match="no peak"):
        excursion.growth_bound_check(recs, window, 1 / 3, 1)


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            excursion.rate_budget(1 / 3, 1, varpi=bad, log_Cc=0.0, eps=0.5, m=5)
        with pytest.raises(ValueError, match="finite"):
            excursion.rate_budget(1 / 3, 1, varpi=0.5, log_Cc=bad, eps=0.5, m=5)
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


def test_tail_report_groups_match_one_group(monkeypatch):
    # walks drawn and walked WALK_GROUP at a time give the report of one group
    sys = ifs.cantor_product(1)
    window = lattices.CompactWindow(3.0)
    whole = excursion.tail_report(sys, window, walks=8, steps=300, seed=6)
    monkeypatch.setattr(excursion, "WALK_GROUP", 3)
    grouped = excursion.tail_report(sys, window, walks=8, steps=300, seed=6)
    for field in dataclasses.fields(excursion.TailReport):
        a, b = getattr(whole, field.name), getattr(grouped, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_tail_report_rejects_negative_burn_in(tmp_path, capsys):
    # a negative burn-in would count every visit as an anchor
    from khintchine_lab import cli

    sys = ifs.cantor_product(1)
    with pytest.raises(ValueError, match="burn_in"):
        excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=2, steps=50, seed=0, burn_in=-1)
    argv = ["simulate", "--walks", "2", "--steps", "50", "--burn-in", "-1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "burn_in" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tail_report_rejects_non_finite_delta(tmp_path, capsys, value):
    # a nan delta gave a nan bound that no tail value could violate; a nan or
    # inf varpi gives such a delta through rate_budget
    from khintchine_lab import cli

    sys = ifs.cantor_product(1)
    with pytest.raises(ValueError, match="finite"):
        excursion.tail_report(sys, lattices.CompactWindow(3.0), walks=2, steps=50, seed=0, delta=value)
    for flag in ("--delta", "--varpi"):
        argv = ["simulate", "--walks", "2", "--steps", "50", flag, str(value), "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "finite" in capsys.readouterr().err


def test_tail_report_censors_a_walk_without_a_return(monkeypatch):
    # burn-in 2 and 4 steps after it: the first walk returns to the window
    # at every step, the second visits it first at step 2 and never again
    sys = ifs.cantor_product(1)
    window = lattices.CompactWindow(1.0)
    returning = [0.0] * 6
    no_return = [5.0, 5.0, 0.0, 5.0, 5.0, 5.0]

    def report(rows):
        # tail_report reads the walks' Delta, e^-height
        fake = np.exp(np.negative(rows))
        monkeypatch.setattr(excursion, "_walk_deltas", lambda sys, words: fake)
        return excursion.tail_report(sys, window, walks=len(rows), steps=4, seed=0, burn_in=2)

    alone = report([returning])
    both = report([returning, no_return])
    assert alone.n_samples == both.n_samples == 3
    assert both.n_censored == alone.n_censored + 1
    np.testing.assert_array_equal(both.empirical_tail, alone.empirical_tail)


@pytest.mark.parametrize("d, walks, steps", [(1, 100, 2064), (2, 6, 400)])
def test_window_visits_match_the_heights_on_walks(d, walks, steps):
    # tail_report decides visits on Delta; the heights of walk_heights against
    # the level must give the same steps.  d = 1 is the benchmark's simulate
    # (100 walks of 64 + 2000 steps); the levels are 3.0 and some of the
    # walks' own heights and their neighbouring floats, where the log decides
    sys = ifs.cantor_product(d)
    words = ifs.sample_words(sys, steps, walks, np.random.default_rng(20))
    deltas = excursion._walk_deltas(sys, words)
    heights = excursion.walk_heights(sys, words)
    picks = np.random.default_rng(21).choice(heights.ravel(), 8)
    levels = [3.0, *picks, *np.nextafter(picks, math.inf), *np.nextafter(picks, -math.inf)]
    for level in map(float, levels):
        np.testing.assert_array_equal(excursion._window_visits(deltas, level), heights <= level)


@pytest.mark.parametrize("level", [3.0, 1.0, 0.5, 0.0, -50.0, 720.0])
def test_window_visits_match_the_log_near_the_band(level):
    # every float within 64 ulps of e^-level, on both sides of the window's
    # edge; at 720 e^-level is subnormal and every step takes the log
    c = np.float64(math.exp(-level))
    deltas = (c.view(np.int64) + np.arange(-64, 65)).view(np.float64)
    want = [-math.log(v) <= level for v in deltas.tolist()]
    assert 0 < sum(want) < len(want)
    assert excursion._window_visits(deltas, level).tolist() == want


def test_tail_report_needs_window_visits():
    sys = ifs.cantor_product(1)
    # level so deep that no walk ever reaches the window
    with pytest.raises(excursion.NoWindowDataError):
        excursion.tail_report(sys, lattices.CompactWindow(-50.0), walks=3, steps=50, seed=0)


@pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.995])
def test_t_quantile_closed_forms(p):
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        df1 = mpmath.tan(mpmath.pi * (q - 0.5))
        df2 = (2 * q - 1) / mpmath.sqrt(2 * q * (1 - q))
        root = mpmath.sqrt(4 * q * (1 - q))
        df4 = 2 * mpmath.sqrt(mpmath.cos(mpmath.acos(root) / 3) / root - 1)
    for df, want in ((1, df1), (2, df2), (4, df4)):
        want = float(want)
        assert abs(excursion._t_quantile(p, df) - want) <= math.ulp(want), (p, df)


@pytest.mark.parametrize("p", [0.9, 0.975])
def test_t_quantile_approaches_the_normal_quantile(p):
    # t_df = z (1 + (z^2 + 1)/(4 df) + O(df^-2)) (Cornish-Fisher)
    z = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
    for df in (10**3, 10**5, 10**7):
        excess = excursion._t_quantile(p, df) / z - 1.0
        assert excess == pytest.approx((z * z + 1.0) / (4 * df), rel=1e-2)


def _logsumexp_reference(a):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in a.tolist())))


def test_logsumexp_matches_mpmath():
    rng = np.random.default_rng(11)
    arrays = [np.array([7.25]), np.array([-3.0]), np.array([2.0, 2.0]), np.full(5, 1.5),
              np.array([2.0, 0.5, 2.0, -1.0]), np.array([0.0, 0.0, 1e-300])]
    # tail_report's arrays: a rate times integer gaps, which often ties the maximum
    arrays += [rng.uniform(0.01, 2.0) * rng.integers(1, 30, size=rng.integers(1, 60))
               for _ in range(200)]
    arrays += [rng.normal(0.0, 50.0, size=rng.integers(1, 60)) for _ in range(100)]
    for a in arrays:
        want = _logsumexp_reference(a)
        assert abs(excursion._logsumexp(a) - want) <= 4 * math.ulp(max(abs(want), 1.0)), a
    # one term, or only ties: nothing is left in the sum, log1p(0) = 0
    assert excursion._logsumexp(np.array([7.25])) == 7.25
    assert excursion._logsumexp(np.full(5, 1.5)) == float(np.log(5.0)) + 1.5


def test_slope_fit_matches_exact_least_squares():
    rng = np.random.default_rng(12)
    for n in (3, 4, 17, 200):
        x = np.arange(1, n + 1)  # tail_report fits against integer thresholds
        y = -rng.uniform(0.1, 1.0) * x + rng.normal(0.0, 0.3, size=n)
        xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
        x_bar, y_bar = sum(xs) / n, sum(ys) / n
        sxx = sum((u - x_bar) ** 2 for u in xs)
        slope = sum((u - x_bar) * (v - y_bar) for u, v in zip(xs, ys)) / sxx
        rss = sum((v - y_bar - slope * (u - x_bar)) ** 2 for u, v in zip(xs, ys))
        got_slope, got_stderr = excursion._slope_fit(x, y)
        assert got_slope == pytest.approx(float(slope), rel=1e-13)
        assert got_stderr == pytest.approx(math.sqrt(rss / sxx / (n - 2)), rel=1e-12)
    # a flat line: no slope and no spread, so no correlation either
    slope, stderr = excursion._slope_fit(np.arange(1.0, 5.0), np.zeros(4))
    assert slope == 0.0 and math.isnan(stderr)


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
