import math
from fractions import Fraction

import numpy as np
import pytest

from khintchine_lab import flows, ifs, lattices, scan
from khintchine_lab.dani import ApproxFunction, RateFunction


def psi_over_q(c=1.0):
    return ApproxFunction.power_log(c, 1.0)


def test_parse_point_formats():
    v, exact = scan.parse_point("1/2")
    assert v.tolist() == [0.5] and exact == [Fraction(1, 2)]
    v, exact = scan.parse_point("0.25")
    assert v.tolist() == [0.25] and exact == [Fraction(1, 4)]
    v, exact = scan.parse_point("golden")
    assert v[0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0) and exact is None
    v, exact = scan.parse_point("1/3, 2/5")
    assert np.allclose(v, [1 / 3, 2 / 5]) and exact == [Fraction(1, 3), Fraction(2, 5)]
    v, exact = scan.parse_point("golden,1/2")
    assert v.size == 2 and exact is None
    with pytest.raises(ValueError):
        scan.parse_point("one half")


def test_half_hits_small_q():
    hits = scan.scan_hits([0.5], psi_over_q(), 10, x_exact=[Fraction(1, 2)])
    assert [h.q for h in hits] == [1, 2, 4, 6, 8, 10]


def test_half_hits_are_one_and_evens():
    # odd q >= 3: |q/2 - p| = 1/2 >= 1/q, so only q = 1 and even q qualify
    hits = scan.scan_hits([0.5], psi_over_q(), 200, x_exact=[Fraction(1, 2)])
    assert [h.q for h in hits] == [1] + list(range(2, 201, 2))
    for h in hits:
        if h.q > 1:
            assert h.error == 0.0 and h.witness_time == math.inf


def test_golden_scaled_psi_hits():
    # q |q phi - p| -> 1/sqrt(5) ~ 0.447, so below 0.44 only q = 1, 3 dip in
    x, _ = scan.parse_point("golden")
    hits = scan.scan_hits(x, psi_over_q(0.44), 10_000)
    assert [h.q for h in hits] == [1, 3]


def test_zero_hits_every_q():
    hits = scan.scan_hits([0.0], psi_over_q(), 50, x_exact=[Fraction(0)])
    assert [h.q for h in hits] == list(range(1, 51))
    assert all(h.error == 0.0 and h.margin > 0.0 for h in hits)


def test_nearest_p_is_optimal():
    rng = np.random.default_rng(3)
    x = rng.random(2)
    hits = scan.scan_hits(x, ApproxFunction.power_log(1.0, 0.2), 60)
    assert hits
    for h in hits:
        base = np.max(np.abs(h.q * x - h.p))
        assert base == pytest.approx(h.error * h.q, abs=1e-12)
        for j in range(2):
            for step in (-1, 1):
                alt = h.p.astype(float).copy()
                alt[j] += step
                assert np.max(np.abs(h.q * x - alt)) >= base - 1e-12


def test_exact_and_float_paths_agree():
    psi = psi_over_q()
    exact = scan.scan_hits([3 / 7], psi, 500, x_exact=[Fraction(3, 7)])
    floats = scan.scan_hits([3 / 7], psi, 500)
    assert [h.q for h in exact] == [h.q for h in floats]
    for he, hf in zip(exact, floats):
        assert he.error == pytest.approx(hf.error, abs=1e-12)
        assert np.array_equal(he.p, hf.p)


def _fraction_scan(x_exact, psi, q_max):
    # the reference oracle: every q in Fractions, psi(q) as the exact value of
    # its libm double
    d = len(x_exact)
    out = []
    for q, psi_f in zip(range(1, q_max + 1), psi(np.arange(1.0, q_max + 1.0)).tolist()):
        qx = [q * xe for xe in x_exact]
        p = [round(v) for v in qx]  # Fraction rounds half to even
        err = max(abs(v - pi) for v, pi in zip(qx, p))
        if err < Fraction(psi_f):
            err_f = float(err)
            t_star = math.inf if err == 0 else d / (d + 1) * (math.log(q) - math.log(err_f))
            out.append((q, p, err_f / q, (psi_f - err_f) / q, t_star))
    return out


def _fields(hits):
    return [(h.q, h.p.tolist(), h.error, h.margin, h.witness_time) for h in hits]


PSI_FAMILIES = [
    ApproxFunction.power_log(1.0, 1.0),
    ApproxFunction.power_log(0.5, 1.5, x0=3.0),
    ApproxFunction.power_log(2.0, 1.0, b=1.0),
]


@pytest.mark.parametrize("psi", PSI_FAMILIES, ids=["q^-1", "q^-1.5/2", "log"])
def test_integer_scan_matches_fraction_reference(psi):
    rng = np.random.default_rng(17)
    targets = [[Fraction(1, 2)], [Fraction(5, 6)], [Fraction(1, 4)], [Fraction(-7, 2)],
               [Fraction(1, 2), Fraction(5, 6)], [Fraction(1, 4), Fraction(3, 10), Fraction(1, 2)]]
    for d in (1, 2, 3):
        for _ in range(4):
            targets.append([Fraction(int(rng.integers(-50, 400)), int(rng.integers(1, 300)))
                            for _ in range(d)])
    for x_exact in targets:
        x = [float(v) for v in x_exact]
        got = _fields(scan.scan_hits(x, psi, 600, x_exact=x_exact))
        assert got == _fraction_scan(x_exact, psi, 600), x_exact


def test_integer_scan_rounds_half_ties_to_even():
    # q = 1 puts 1/2, and q = 3 puts 3/2 and 15/6, exactly halfway between
    # integers; psi = 1 makes every q a hit, and each tie rounds to even
    hits = scan.scan_hits([0.5, 5 / 6], ApproxFunction.power_log(1.0, 0.0), 3,
                          x_exact=[Fraction(1, 2), Fraction(5, 6)])
    assert [h.p.tolist() for h in hits] == [[0, 1], [1, 2], [2, 2]]


def test_float_scan_decides_every_q_with_libm_psi():
    rng = np.random.default_rng(23)
    q_max = 10_000
    qs = np.arange(1, q_max + 1)
    total = 0
    for d in (1, 2, 3):
        for psi in PSI_FAMILIES:
            x = rng.random(d)
            want = []
            for q, psi_q in zip(qs.tolist(), psi(qs.astype(float)).tolist()):
                qx = q * x
                p = np.rint(qx)
                err = float(np.max(np.abs(qx - p)))
                if err < psi_q:
                    want.append((q, p.astype(int).tolist(), err / q, (psi_q - err) / q))
            hits = scan.scan_hits(x, psi, q_max)
            assert [(h.q, h.p.tolist(), h.error, h.margin) for h in hits] == want
            total += len(want)
    assert total > 20


def _t_star(q, err, d):
    return math.inf if err == 0.0 else d / (d + 1) * (math.log(q) - math.log(err))


def _dense_float_scan(x, psi_all, q_max):
    # the reference of the float scan: every q, decided as err < psi(q) on
    # the libm psi of every q, with no filter
    d = x.size
    qs = np.arange(1, q_max + 1)
    qx = qs[:, None] * x
    p = np.rint(qx)
    err = np.max(np.abs(qx - p), axis=1)
    hit = np.flatnonzero(err < psi_all)
    return [(q, p_q, err_q / q, (psi_q - err_q) / q, _t_star(q, err_q, d))
            for q, p_q, err_q, psi_q in zip((hit + 1).tolist(), p[hit].astype(int).tolist(),
                                            err[hit].tolist(), psi_all[hit].tolist())]


def _all_q_integer_scan(x_exact, psi, q_max):
    # the reference of the rational scan: the integer test on every q, with
    # no filter
    d = len(x_exact)
    big_b = math.lcm(*(xe.denominator for xe in x_exact))
    nums = [xe.numerator * (big_b // xe.denominator) for xe in x_exact]
    out = []
    for q, psi_q in zip(range(1, q_max + 1), psi(np.arange(1.0, q_max + 1.0)).tolist()):
        p, e_max = [], 0
        for a_j in nums:
            p_j, rem = divmod(q * a_j, big_b)
            if 2 * rem > big_b or (2 * rem == big_b and p_j & 1):
                p_j, rem = p_j + 1, big_b - rem
            p.append(p_j)
            e_max = max(e_max, rem)
        m, n = psi_q.as_integer_ratio()
        if e_max * n < m * big_b:
            err_q = e_max / big_b
            out.append((q, p, err_q / q, (psi_q - err_q) / q, _t_star(q, err_q, d)))
    return out


# past two scan chunks of 2^15 q and across 17 dyadic bands
SCALE_Q_MAX = 70_000
# the psi families, one steep enough to underflow to subnormals and zero
# near q = 360, and one frozen at psi(5000) over its first 13 bands
SCALE_PSI = PSI_FAMILIES + [ApproxFunction.power_log(1.0, 120.0),
                            ApproxFunction.power_log(1.0, 1.0, x0=5000.0)]


@pytest.mark.parametrize("psi", SCALE_PSI, ids=["q^-1", "q^-1.5/2", "log", "q^-120", "x0=5000"])
def test_float_scan_matches_dense_reference_at_scale(psi):
    # random targets, and dyadic ones whose zero errors hit wherever psi(q)
    # is positive, subnormal psi(q) included
    rng = np.random.default_rng(29)
    psi_all = psi(np.arange(1.0, SCALE_Q_MAX + 1.0))
    targets = [rng.random(d) for d in (1, 2, 3)]
    targets += [np.array([0.5]), np.array([0.25, 0.75]), np.array([0.125, 0.5, 0.0])]
    for x in targets:
        hits = scan.scan_hits(x, psi, SCALE_Q_MAX)
        assert _fields(hits) == _dense_float_scan(x, psi_all, SCALE_Q_MAX), x
    if psi.a == 120.0:
        assert 0.0 < psi_all.min(where=psi_all > 0.0, initial=1.0) < 2.0**-1022
        assert any(h.q > 360 for h in scan.scan_hits([0.5], psi, SCALE_Q_MAX))


# rational targets: one whose denominator exceeds 10^4, and 10^7 + 1234/10007
# under the constant psi = 1.2/10007, where the float error of q x is off by
# up to 2.2e-5, so that 8 of the 20 hits pass the filter only by its slack
SCALE_RATIONALS = [
    ([Fraction(31415, 65519)], psi_over_q()),
    ([Fraction(3, 7), Fraction(5, 11)], ApproxFunction.power_log(1.0, 0.5)),
    ([Fraction(1, 4), Fraction(-7, 30), Fraction(100, 101)], ApproxFunction.power_log(2.0, 1.0, b=1.0)),
    ([Fraction(10**7 * 10007 + 1234, 10007)], ApproxFunction.power_log(1.2 / 10007, 0.0)),
]


@pytest.mark.parametrize("x_exact, psi", SCALE_RATIONALS, ids=["d1-65519", "d2", "d3", "d1-large-x"])
def test_rational_scan_matches_all_q_integer_scan_at_scale(x_exact, psi):
    want = _all_q_integer_scan(x_exact, psi, SCALE_Q_MAX)
    x = [float(xe) for xe in x_exact]
    assert _fields(scan.scan_hits(x, psi, SCALE_Q_MAX, x_exact=x_exact)) == want
    # the scan reads the floats of x_exact, not a disagreeing x
    assert _fields(scan.scan_hits(np.add(x, 0.3), psi, SCALE_Q_MAX, x_exact=x_exact)) == want
    assert len(want) > 5


def test_hit_record_fields():
    x = np.array([1 / 3 + 1e-4])
    hits = scan.scan_hits(x, psi_over_q(), 3)
    h3 = next(h for h in hits if h.q == 3)
    err_q = 3 * 1e-4
    assert h3.error == pytest.approx(1e-4)
    assert h3.margin == pytest.approx(1.0 / 9.0 - 1e-4)
    assert h3.witness_time == pytest.approx(0.5 * (math.log(3) - math.log(err_q)))


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan.scan_hits([0.5], psi_over_q(), 0)
    with pytest.raises(ValueError, match="mismatch"):
        scan.scan_hits([0.5], psi_over_q(), 5, x_exact=[Fraction(1, 2), Fraction(1, 3)])


def test_cross_check_clean_on_rationals_and_golden():
    psi = psi_over_q()
    for text in ("0", "1/2", "3/7"):
        x, exact = scan.parse_point(text)
        rep = scan.dani_cross_check(x, psi, 1, 300, x_exact=exact)
        assert rep.direct_violations == [] and rep.converse_violations == []
        assert rep.hits_checked + rep.degenerate_skipped > 0
        assert rep.times_checked > 0
    x, _ = scan.parse_point("golden")
    rep = scan.dani_cross_check(x, psi_over_q(0.44), 1, 300)
    assert rep.direct_violations == [] and rep.converse_violations == []


def test_cross_check_reports_violations(monkeypatch):
    # both checks can fail: a height of -inf fails every checked hit, and a
    # witness with q = 0 fails every crossing
    x, _ = scan.parse_point("golden")
    psi = psi_over_q(0.44)
    clean = scan.dani_cross_check(x, psi, 1, 300)
    assert clean.hits_checked > 0 and clean.crossings > 0
    with monkeypatch.context() as mp:
        mp.setattr(scan, "height", lambda point: -math.inf)
        rep = scan.dani_cross_check(x, psi, 1, 300)
    assert len(rep.direct_violations) == rep.hits_checked == clean.hits_checked
    assert all(l_val == -math.inf for _, _, l_val, _ in rep.direct_violations)
    assert rep.converse_violations == []
    with monkeypatch.context() as mp:
        mp.setattr(scan, "_witness", lambda u, coeffs: np.zeros(2, dtype=np.int64))
        rep = scan.dani_cross_check(x, psi, 1, 300)
    assert rep.direct_violations == []
    assert len(rep.converse_violations) == rep.crossings == clean.crossings
    assert all(q == 0 for _, q, _, _ in rep.converse_violations)


def test_cross_check_skips_degenerate_hits():
    x, exact = scan.parse_point("1/2")
    rep = scan.dani_cross_check(x, psi_over_q(), 1, 50, x_exact=exact)
    # q multiples of 2 have error exactly zero: no finite witness time
    assert rep.degenerate_skipped == 25
    assert rep.hits_checked + rep.degenerate_skipped + rep.below_domain_skipped == 26


def _attained_height(witness, x, t):
    # -log of the sup norm of the witness's vector in the cold basis at t,
    # each entry a correctly rounded sum
    basis = lattices.dual_basis(flows.diagonal_point(x, t)).tolist()
    vec = [math.fsum(int(c) * v for c, v in zip(witness, col)) for col in zip(*basis)]
    return -math.log(max(map(abs, vec)))


@pytest.mark.parametrize("d, t_end", [(1, 12.0), (2, 14.0), (3, 12.0)])
def test_grid_walk_matches_cold_shortest_vectors(d, t_end):
    # Below the faithful horizon (1 + 1/d) t < 53 log 2 the walked and the
    # cold height differ by roundings amplified by up to e^((1 + 1/d) t),
    # plus the drift of the walk's repeated scaling; the gap measured here
    # stays under 2^-51 (1 + e^((1 + 1/d) t)), and the bound is 8 times that
    rng = np.random.default_rng(40 + d)
    for _ in range(2):
        x = rng.random(d)
        ts = np.arange(rng.uniform(0.0, scan._GRID_STEP), t_end, scan._GRID_STEP)
        for t, (delta, u, coeffs) in zip(ts.tolist(), scan._grid_walk(x, ts)):
            delta_cold, witness_cold = lattices.shortest_vector(flows.diagonal_point(x, t))
            bound = 2.0**-48 * (1.0 + math.exp((1.0 + 1.0 / d) * t))
            l_cold = -math.log(delta_cold)
            assert abs(-math.log(delta) - l_cold) <= bound, t
            witness = lattices._witness(u, coeffs)
            if not np.array_equal(witness, witness_cold):
                # a near-tie decided by rounding: both witnesses attain Delta
                for w in (witness, witness_cold):
                    assert abs(_attained_height(w, x, t) - l_cold) <= bound, t


def _cold_converse(x, psi, d, q_max, tol):
    # the reference of the converse grid: every grid lattice built and
    # reduced cold, its witness read by shortest_vector
    rate = RateFunction(psi, d)
    ts = np.arange(rate.t_start + 1e-6, d / (d + 1) * math.log(q_max) + 5.0, scan._GRID_STEP)
    times_checked, crossings, violations = 0, 0, []
    for t, r_val in zip(ts.tolist(), rate(ts).tolist()):
        if t - r_val > math.log(q_max) - 1e-9:
            continue
        times_checked += 1
        delta, coeffs = lattices.shortest_vector(flows.diagonal_point(x, t))
        if -math.log(delta) < r_val + tol:
            continue
        crossings += 1
        q, p = int(coeffs[0]), -coeffs[1:]
        err = float(np.max(np.abs(q * x - p))) if q != 0 else math.inf
        psi_q = float(psi(q)) if q >= 1 else math.nan
        if q < 1 or q > math.exp(t) + 1.0 or not err < psi_q:
            violations.append((t, q, err, psi_q))
    return times_checked, crossings, violations


# the approx cases of the golden digests (d = 1, 2; default psi = 1/q) and
# a07's twelve combos (d = 1, q_max = 10^4)
GOLDEN_APPROX = [(text, ApproxFunction.power_log(1.0, 1.0), 200)
                 for text in ("3/7,5/11", "golden,0.3", "3/7", "golden")]
A07_APPROX = [(text, psi, 10_000) for text in ("0", "1/2", "3/7", "golden")
              for psi in (ApproxFunction.power_log(1.0, 1.0), ApproxFunction.power_log(1.0, 1.5),
                          ApproxFunction.power_log(0.44, 1.0))]


@pytest.mark.parametrize("text, psi, q_max", GOLDEN_APPROX + A07_APPROX)
def test_walked_converse_grid_counts_match_cold_grid(text, psi, q_max):
    x, exact = scan.parse_point(text)
    rep = scan.dani_cross_check(x, psi, x.size, q_max, tol=1e-6, x_exact=exact)
    assert rep.times_checked > 0
    want = _cold_converse(x, psi, x.size, q_max, 1e-6)
    assert (rep.times_checked, rep.crossings, rep.converse_violations) == want


def test_survey_control_function_hits_every_band():
    sys = ifs.cantor_product(1)
    ones = ApproxFunction.power_log(1.0, 0.0)
    bands = scan.survey(sys, ones, 40, 64, seed=5)
    assert [b.fraction for b in bands] == [1.0] * len(bands)
    assert [b.n_uncertain for b in bands] == [0] * len(bands)


def test_survey_band_structure_and_determinism():
    sys = ifs.cantor_product(1)
    psi = ApproxFunction.power_log(1.0, 1.5)
    a = scan.survey(sys, psi, 30, 100, seed=9)
    b = scan.survey(sys, psi, 30, 100, seed=9)
    assert a == b
    assert a[0].q_lo == 1
    for prev, cur in zip(a, a[1:]):
        assert cur.q_lo == prev.q_hi + 1
        assert cur.k == prev.k + 1
    assert a[-1].q_hi == 100
    assert all(s.n_points == 30 for s in a)
    assert all(0 <= s.n_certain + s.n_uncertain <= s.n_points for s in a)
    c = scan.survey(sys, psi, 30, 100, seed=10)
    assert any(sa != sc for sa, sc in zip(a, c)) or a == c  # seed only moves samples


def test_survey_uncertain_band_near_threshold():
    # shallow coding depth makes the truncation radius big: hits whose margin
    # is inside the radius must be flagged uncertain, not certain
    sys = ifs.cantor_product(1)
    psi = ApproxFunction.power_log(1.0, 1.5)
    shallow = scan.survey(sys, psi, 50, 100, depth=3, seed=2)
    deep = scan.survey(sys, psi, 50, 100, depth=40, seed=2)
    assert sum(s.n_uncertain for s in shallow) >= sum(s.n_uncertain for s in deep)
    assert sum(s.n_uncertain for s in deep) == 0


def _naive_band_counts(points, psi, q_max, trunc):
    # per point and per q, the float formula of survey written out in Python
    out = []
    for k in range(q_max.bit_length()):
        qs = range(2**k, min(2 ** (k + 1) - 1, q_max) + 1)
        psi_q = psi(np.array(qs, dtype=float)).tolist()
        n_certain = n_uncertain = 0
        for x in points.tolist():
            certain = uncertain = False
            for q, psi_f in zip(qs, psi_q):
                err = max(abs(q * x_j - round(q * x_j)) for x_j in x)
                margin = psi_f - err
                guard = q * trunc
                certain |= margin > guard
                uncertain |= abs(margin) <= guard
            n_certain += certain
            n_uncertain += uncertain and not certain
        out.append((n_certain, n_uncertain))
    return out


@pytest.mark.parametrize("depth", [3, 8, None])
def test_survey_matches_naive_loop(depth):
    sys = ifs.cantor_product(2)
    psi = ApproxFunction.power_log(1.0, 1.5)
    count, q_max, seed = 25, 100, 2
    bands = scan.survey(sys, psi, count, q_max, depth=depth, seed=seed)
    depth = sys.default_depth() if depth is None else depth
    points = ifs.sample_fractal(sys, count, depth=depth, seed=seed)
    trunc = sys.kappa**depth * ifs.diameter_estimate(sys)
    expect = _naive_band_counts(points, psi, q_max, trunc)
    assert [(b.n_certain, b.n_uncertain) for b in bands] == expect
    if depth == 3:
        assert sum(b.n_uncertain for b in bands) > 0


def _dense_survey(points, psi, q_max, radius):
    # the reference: every coordinate folded over every (point, q) pair of a
    # block of q, in three (N, chunk) float buffers
    count, d = points.shape
    coords = np.ascontiguousarray(points.T)
    chunk = max(1, (1 << 20) // (count * d))
    err_buf, dist_buf, near_buf = (np.empty((count, min(chunk, q_max))) for _ in range(3))
    stats = []
    for k in range(q_max.bit_length()):
        q_lo, q_hi = 2**k, min(2 ** (k + 1) - 1, q_max)
        certain = np.zeros(count, dtype=bool)
        uncertain = np.zeros(count, dtype=bool)
        qs_all = np.arange(q_lo, q_hi + 1)
        for lo in range(0, qs_all.size, chunk):
            qs = qs_all[lo : lo + chunk].astype(float)
            psi_q = np.asarray(psi(qs), dtype=float)
            err = err_buf[:, : qs.size]
            dist = dist_buf[:, : qs.size]
            near = near_buf[:, : qs.size]
            for j, x_j in enumerate(coords):
                block_j = dist if j else err
                np.multiply(x_j[:, None], qs, out=block_j)
                np.rint(block_j, out=near)
                np.subtract(block_j, near, out=block_j)
                np.abs(block_j, out=block_j)
                if j:
                    np.maximum(err, dist, out=err)
            margin = np.subtract(psi_q, err, out=err)
            guard = qs * radius
            certain |= np.any(margin > guard, axis=1)
            uncertain |= np.any(np.abs(margin, out=margin) <= guard, axis=1)
        uncertain &= ~certain
        stats.append(scan.BandStat(k, q_lo, q_hi, count, int(certain.sum()), int(uncertain.sum())))
    return stats


def test_survey_splits_wide_bands_into_blocks():
    # 2^15 points cut each band into blocks of 2 q; psi(q) = 1/(4q) is one
    # correctly rounded division, the same float in any block
    sys = ifs.cantor_product(2)
    count, q_max, depth = 1 << 15, 200, 12
    psi = lambda qs: 0.25 / qs
    bands = scan.survey(sys, psi, count, q_max, depth=depth, seed=4)
    points = ifs.sample_fractal(sys, count, depth=depth, seed=4)
    assert bands == _dense_survey(points, psi, q_max, scan._guard_radius(sys, depth, points.T))
    assert scan._SURVEY_BLOCK // count < bands[-1].q_hi - bands[-1].q_lo
    for band in bands[-2:]:
        assert band.n_certain > 0 and band.n_uncertain > 0


def _psi_with_nans(qs):
    return np.where(qs % 3 == 0, np.nan, 0.5 / qs)


# (d, depth, points, q_max, psi); shallow depths leave uncertain points
DENSE_CASES = {
    "d1-depth3": (1, 3, 300, 500, ApproxFunction.power_log(1.0, 1.5)),
    "d1-default": (1, None, 300, 500, ApproxFunction.power_log(1.0, 1.5)),
    "d2-depth4": (2, 4, 300, 500, ApproxFunction.power_log(1.0, 1.5)),
    "d2-depth5": (2, 5, 300, 500, ApproxFunction.power_log(1.0, 1.0)),
    "d2-default": (2, None, 300, 500, ApproxFunction.power_log(1.0, 1.5)),
    "d3-depth3": (3, 3, 300, 300, ApproxFunction.power_log(1.0, 1.0)),
    "d3-default": (3, None, 300, 300, ApproxFunction.power_log(2.0, 1.0, b=1.0)),
    "d2-scalar-psi": (2, 4, 300, 300, lambda qs: 0.05),
    "d2-nan-psi": (2, 4, 300, 300, _psi_with_nans),
}


@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_survey_matches_dense_fold(case):
    d, depth, count, q_max, psi = DENSE_CASES[case]
    sys = ifs.cantor_product(d)
    bands = scan.survey(sys, psi, count, q_max, depth=depth, seed=6)
    depth = sys.default_depth() if depth is None else depth
    points = ifs.sample_fractal(sys, count, depth=depth, seed=6)
    radius = scan._guard_radius(sys, depth, points.T)
    assert bands == _dense_survey(points, psi, q_max, radius)
    assert sum(b.n_certain for b in bands) > 0
    assert (sum(b.n_uncertain for b in bands) > 0) == (depth < 20)


def _exact_coding_points(sys, words):
    # phi_{b_1} o ... o phi_{b_n}(p0) in Fractions, on the float parameters
    maps = [(Fraction(m.ratio), [[Fraction(v) for v in row] for row in m.rotation.tolist()],
             [Fraction(v) for v in m.translation.tolist()]) for m in sys.maps]
    d = sys.dimension
    out = []
    for word in words.tolist():
        p = [Fraction(v) for v in sys.base_point().tolist()]
        for s in reversed(word):
            ratio, rot, trans = maps[s]
            p = [ratio * sum(p[i] * rot[i][j] for i in range(d)) + trans[j] for j in range(d)]
        out.append(p)
    return out


def _rotated_system():
    turn = [[math.cos(0.7), math.sin(0.7)], [-math.sin(0.7), math.cos(0.7)]]
    maps = (
        ifs.SimilarityMap(0.4, turn, [0.1, -0.2]),
        ifs.SimilarityMap(0.4, np.eye(2), [0.6, 0.2]),
        ifs.SimilarityMap(0.4, [[0.6, 0.8], [-0.8, 0.6]], [-0.3, 0.5]),
    )
    return ifs.IfsSystem(maps=maps, weights=np.array([0.3, 0.3, 0.4]))


@pytest.mark.parametrize("system", ["cantor:1", "cantor:2", "cantor:3", "rotated"])
def test_survey_guard_covers_float_points(system):
    sys = _rotated_system() if system == "rotated" else ifs.cantor_product(int(system[-1]))
    depth = sys.default_depth()
    words = ifs.sample_words(sys, depth, 60, np.random.default_rng(31))
    points = ifs.points_of_words(sys, words)
    exact = _exact_coding_points(sys, words)
    # the float points are within rounding_bound of the exact ones, and the
    # bound is no more than 16 times the largest error seen
    point_err = max(
        math.sqrt(sum((Fraction(v) - e) ** 2 for v, e in zip(row, ex)))
        for row, ex in zip(points.tolist(), exact)
    )
    bound = ifs.rounding_bound(sys)
    assert point_err <= bound <= 16 * point_err
    # every computed error is within q * radius of the exact one; the
    # truncation radius alone would not cover it
    radius = Fraction(scan._guard_radius(sys, depth, points.T))
    trunc = Fraction(sys.kappa**depth * ifs.diameter_estimate(sys))
    beyond_trunc = False
    for q in (1, 7, 1000, 9973, 65537, 10**6):
        qy = q * points
        computed = np.max(np.abs(qy - np.rint(qy)), axis=1).tolist()
        for err_f, ex in zip(computed, exact):
            err = max(abs(q * e - round(q * e)) for e in ex)
            gap = abs(Fraction(err_f) - err)
            assert gap <= q * radius, (q, float(gap))
            beyond_trunc |= gap > q * trunc
    assert beyond_trunc


@pytest.mark.parametrize("system", ["cantor:1", "cantor:2", "cantor:3", "rotated"])
def test_coding_point_bound_covers_float_error(system):
    # at depth 66 the truncation term is below 1e-26 and the float error
    # dominates: the bound covers the exact coding point of the word and of
    # a 30 symbols longer extension
    sys = _rotated_system() if system == "rotated" else ifs.cantor_product(int(system[-1]))
    words = ifs.sample_words(sys, 96, 12, np.random.default_rng(37))
    extended = _exact_coding_points(sys, words)
    truncated = _exact_coding_points(sys, words[:, :66])
    for word, ext, trunc in zip(words, extended, truncated):
        point, bound = ifs.coding_point(sys, word[:66])
        for exact in (ext, trunc):
            dist2 = sum((Fraction(v) - e) ** 2 for v, e in zip(point.tolist(), exact))
            assert dist2 <= Fraction(bound) ** 2
