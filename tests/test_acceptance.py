"""End-to-end acceptance checks, one per criterion, each with a time budget.

Every test prints a single pass/fail line through the `criterion` fixture;
see conftest.py.  Tolerances and instance counts are fixed contracts, not
tuning knobs."""

import math
import time
from fractions import Fraction

import numpy as np

from khintchine_lab import constants, dani, excursion, flows, ifs, lattices, scan
from khintchine_lab.dani import ApproxFunction, RateFunction
from khintchine_lab.lattices import dual_basis

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rotation(rng, d):
    if d == 1:
        return np.eye(1)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_a01_group_identities(criterion):
    def check():
        rng = np.random.default_rng(11)
        budget = 1.0
        start = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            d = 1 + i % 3
            s, t = rng.normal(size=2)
            left = flows.diag_element(s, d) @ flows.diag_element(t, d)
            worst = max(
                worst,
                float(np.max(np.abs(left.matrix - flows.diag_element(s + t, d).matrix))),
            )
            u, v = np.exp(rng.normal(size=2) * 0.5)
            gl = flows.mult_flow(u, d) @ flows.mult_flow(v, d)
            worst = max(
                worst,
                float(np.max(np.abs(gl.matrix - flows.mult_flow(u * v, d).matrix))),
            )
            t_p = float(rng.normal()) * 0.7
            orth = rotation(rng, d)
            alpha = rng.normal(size=d)
            p = flows.assemble_P(t_p, orth, alpha)
            t2, o2, a2 = flows.decompose_P(p)
            worst = max(
                worst,
                abs(t2 - t_p),
                float(np.max(np.abs(o2 - orth))),
                float(np.max(np.abs(a2 - alpha))),
            )
            beta = rng.normal(size=d)
            q = flows.assemble_P(
                float(rng.normal()) * 0.7, rotation(rng, d), rng.normal(size=d)
            )
            act = flows.rho_apply(p @ q, beta)
            two = flows.rho_apply(p, flows.rho_apply(q, beta))
            worst = max(worst, float(np.max(np.abs(act - two))))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed < budget
        return ok, f"max residual {worst:.2e} (tol 1e-10), {elapsed:.2f}s < {budget}s"

    criterion(check)


def test_a02_walk_matches_coding(criterion):
    def check():
        rng = np.random.default_rng(23)
        budget = 5.0
        start = time.perf_counter()
        worst = 0.0
        for d in (1, 2):
            sys = ifs.cantor_product(d)
            steps = flows.walk_steps(sys)
            for _ in range(50):
                word = tuple(int(s) for s in rng.integers(0, sys.alphabet_size, 40))
                beta = rng.normal(size=d)
                chain = None
                for n, g in enumerate(flows.walk_products(steps, word), start=1):
                    # new letter composes innermost: chain_n = chain o phi_s
                    phi = sys.maps[word[n - 1]]
                    chain = phi if chain is None else ifs.compose(chain, phi)
                    diff = np.max(
                        np.abs(flows.rho_apply(g.inverse(), beta) - chain(beta))
                    )
                    worst = max(worst, float(diff))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < budget
        return ok, f"100 words n<=40, max coord err {worst:.2e} (tol 1e-8), {elapsed:.2f}s"

    criterion(check)


def test_a03_uniform_words_ride_the_diagonal(criterion):
    def check():
        budget = 1.0
        start = time.perf_counter()
        worst = 0.0
        for d, t_step in ((1, math.log(3) / 2), (2, 2 * math.log(3) / 3)):
            sys = ifs.cantor_product(d)
            steps = flows.walk_steps(sys)
            word = (0,) * 100
            for n, g in enumerate(flows.walk_products(steps, word), start=1):
                t, _, _ = flows.decompose_P(g)
                worst = max(worst, abs(t - n * t_step))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed < budget
        return ok, f"n<=100 both d, max |t - n t_step| {worst:.2e}, {elapsed:.2f}s"

    criterion(check)


def test_a04_high_precision_shadowing(criterion):
    def check():
        budget = 30.0
        start = time.perf_counter()
        worst = 0.0
        for d in (1, 2):
            sys = ifs.cantor_product(d)
            for seed in range(50):
                worst = max(
                    worst, flows.shadowing_identity_residual(sys, seed, n=50)
                )
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < budget
        return ok, f"100 streams n=50, max residual {worst:.2e} (tol 1e-6), {elapsed:.1f}s"

    criterion(check)


def test_a05_certified_shortest_vectors(criterion):
    def check():
        budget = 60.0
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        worst = 0.0
        inv_worst = 0.0
        # coefficient box: |c_0| <= e^t, |c_j| <= e^t ||x||_2 + sqrt(d);
        # with t <= 2 and x in [0,1)^d that is under 9, 12, 15 by dimension
        plan = [(1, 500, 10), (2, 350, 13), (3, 150, 15)]
        for d, count, bound in plan:
            for i in range(count):
                t = float(rng.uniform(0.0, 2.0))
                x = rng.uniform(0.0, 1.0, size=d)
                g = (
                    flows.diag_element(t, d)
                    @ flows.unipotent_element(x)
                    @ flows.rotation_element(rotation(rng, d))
                )
                basis = dual_basis(g)
                delta, _ = lattices.shortest_of_basis(basis)
                brute, _ = lattices.brute_force_shortest(basis, coeff_bound=bound)
                worst = max(worst, abs(delta - brute))
                if i < 35:
                    u = np.eye(d + 1)
                    a, b = rng.integers(0, d + 1, size=2)
                    if a != b:
                        u[a, b] = float(rng.integers(-3, 4))
                    delta_u, _ = lattices.shortest_of_basis(u @ basis)
                    inv_worst = max(inv_worst, abs(delta_u - delta))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and inv_worst <= 1e-12 and elapsed < budget
        return ok, (
            f"1000 instances, |certified - brute| {worst:.2e}, "
            f"unimodular drift {inv_worst:.2e} (tol 1e-12), {elapsed:.1f}s"
        )

    criterion(check)


def test_a06_rate_closed_form_and_round_trip(criterion):
    def check():
        budget = 5.0
        start = time.perf_counter()
        worst_closed = 0.0
        for d in (1, 2, 3, 4, 5):
            for a in (0.4, 0.8, 1.3, 2.0, 3.0):
                psi = ApproxFunction.power_log(1.0, a)
                t0 = dani.t0_of(psi, d)
                ts = np.linspace(t0, t0 + 30.0, 61)
                rs = dani.r_from_psi(psi, d, ts)
                want = (a - 1.0 / d) * ts / (1.0 + a)
                worst_closed = max(worst_closed, float(np.max(np.abs(rs - want))))
        worst_crit = 0.0
        for d in (1, 2, 3, 4, 5):
            psi = ApproxFunction.power_log(1.0, 1.0 / d)
            ts = np.linspace(dani.t0_of(psi, d), 40.0, 41)
            worst_crit = max(worst_crit, float(np.max(np.abs(dani.r_from_psi(psi, d, ts)))))
        worst_rt = 0.0
        for d, a in ((1, 1.5), (2, 0.8), (3, 2.2)):
            psi = ApproxFunction.power_log(1.0, a)
            rate = RateFunction(psi, d)
            for x in np.geomspace(2.0, 1e8, 10):
                back = dani.psi_from_r(rate, float(x))
                worst_rt = max(worst_rt, abs(back - psi(float(x))) / psi(float(x)))
        elapsed = time.perf_counter() - start
        ok = (
            worst_closed <= 1e-9
            and worst_crit <= 1e-9
            and worst_rt <= 1e-8
            and elapsed < budget
        )
        return ok, (
            f"closed {worst_closed:.2e}, critical {worst_crit:.2e}, "
            f"round trip {worst_rt:.2e}, {elapsed:.1f}s"
        )

    criterion(check)


def test_a07_hit_times_cross_check(criterion):
    def check():
        budget = 60.0
        start = time.perf_counter()
        points = [
            ([0.0], [Fraction(0)]),
            ([0.5], [Fraction(1, 2)]),
            ([3 / 7], [Fraction(3, 7)]),
            ([GOLDEN], None),
        ]
        psis = [
            ApproxFunction.power_log(1.0, 1.0),
            ApproxFunction.power_log(1.0, 1.5),
            ApproxFunction.power_log(0.44, 1.0),
        ]
        total_violations = 0
        total_hits = 0
        total_times = 0
        for x, exact in points:
            for psi in psis:
                rep = scan.dani_cross_check(
                    np.array(x), psi, 1, 10_000, tol=1e-6, x_exact=exact
                )
                total_violations += len(rep.direct_violations) + len(rep.converse_violations)
                total_hits += rep.hits_checked
                total_times += rep.times_checked
        elapsed = time.perf_counter() - start
        ok = total_violations == 0 and total_hits > 0 and elapsed < budget
        return ok, (
            f"12 combos q<=1e4: {total_violations} violations over "
            f"{total_hits} hits / {total_times} times, {elapsed:.1f}s"
        )

    criterion(check)


def test_a08_exact_hit_sets(criterion):
    def check():
        budget = 30.0
        start = time.perf_counter()
        half = scan.scan_hits(
            [0.5], ApproxFunction.power_log(1.0, 1.0), 10, x_exact=[Fraction(1, 2)]
        )
        half_qs = [h.q for h in half]
        gold = scan.scan_hits([GOLDEN], ApproxFunction.power_log(0.44, 1.0), 100_000)
        gold_qs = [h.q for h in gold]
        elapsed = time.perf_counter() - start
        ok = half_qs == [1, 2, 4, 6, 8, 10] and gold_qs == [1, 3] and elapsed < budget
        return ok, f"half {half_qs}, golden {gold_qs}, {elapsed:.1f}s"

    criterion(check)


def test_a09_excursion_growth_bound(criterion):
    def check():
        budget = 300.0
        start = time.perf_counter()
        window = lattices.CompactWindow(3.0)
        refine = 4
        violations = 0
        n_records = 0
        for d in (1, 2):
            sys = ifs.cantor_product(d)
            slack = excursion.lipschitz_slack(sys.kappa, d, refine)
            for x in ifs.sample_fractal(sys, 50, seed=41):
                recs = excursion.diagonal_excursions(
                    np.atleast_1d(x), sys.kappa, window, 2000, refine
                )
                n_records += len(recs)
                violations += len(
                    excursion.growth_bound_check(
                        recs, window, sys.kappa, d, peak_slack=slack
                    )
                )
        elapsed = time.perf_counter() - start
        ok = violations == 0 and n_records > 0 and elapsed < budget
        return ok, (
            f"100 orbits n_max=2000: {violations} violations over "
            f"{n_records} records, {elapsed:.0f}s < {budget:.0f}s"
        )

    criterion(check)


def test_a10_return_time_tails(criterion):
    def check():
        budget = 300.0
        start = time.perf_counter()
        sys = ifs.cantor_product(1)
        rep = excursion.tail_report(
            sys, lattices.CompactWindow(3.0), walks=200, steps=5000, seed=7
        )
        dominated = bool(np.all(rep.empirical_tail <= rep.chebyshev_bound + 1e-12))
        rate_positive = rep.fitted_rate_ci[0] > 0.0
        elapsed = time.perf_counter() - start
        ok = dominated and rate_positive and elapsed < budget
        return ok, (
            f"200x5000 walks: dominated={dominated}, fitted rate "
            f"{rep.fitted_rate:.3f} ci ({rep.fitted_rate_ci[0]:.3f}, "
            f"{rep.fitted_rate_ci[1]:.3f}), {elapsed:.0f}s"
        )

    criterion(check)


def test_a11_constants_and_certificates(criterion):
    def check():
        budget = 600.0
        start = time.perf_counter()
        exact_ok = all(
            abs(constants.cantor_varpi(d) - d * math.log(2) / math.log(3)) <= 1e-12
            for d in (1, 2, 3, 4)
        )
        planes = {
            1: [([1], 0.5), ([1], 0.25)],
            2: [([1, 1], 1.0), ([2, -1], 0.5)],
            3: [([1, 1, 1], 1.5), ([1, 2, 3], 1.0)],
        }
        cert_ok = True
        worst_frac = 0.0
        for d, cases in planes.items():
            for coeffs, rhs in cases:
                for n in range(1, 9):
                    cert = constants.cover_hyperplane(coeffs, rhs, n)
                    bound = constants.bound_constant(d) * 2 ** ((d - 1) * n)
                    cert_ok &= cert.count <= bound
                    worst_frac = max(worst_frac, cert.count / bound)
        alphas = constants.alpha_estimate(
            ifs.cantor_product(2),
            1,
            n_range=(3, 4, 5),
            search_budget=200,
            seed=1,
            sample_count=1_000_000,
        )
        alpha_ok = all(0.58 <= p.ratio <= 0.68 for p in alphas)
        ratios = ", ".join(f"{p.ratio:.3f}" for p in alphas)
        elapsed = time.perf_counter() - start
        ok = exact_ok and cert_ok and alpha_ok and elapsed < budget
        return ok, (
            f"varpi exact d<=4: {exact_ok}; counts <= C_d 2^((d-1)n) n<=8: "
            f"{cert_ok} (max fill {worst_frac:.2f}); alpha_1(C^2) [{ratios}] "
            f"in [0.58, 0.68]: {alpha_ok}; {elapsed:.0f}s"
        )

    criterion(check)


def test_a12_series_verdict_agreement(criterion):
    def check():
        budget = 1.0
        start = time.perf_counter()
        agreements = 0
        for a in (0.5, 1.0, 2.0):
            psi = ApproxFunction.power_log(1.0, a)
            rate = RateFunction(psi, 1)
            for alpha in (0.3, 0.6, 0.9):
                left = dani.classify_khintchine_series(psi, 1, alpha)
                right = dani.classify_rate_series(rate, 2.0 * alpha)
                agreements += left == right
        elapsed = time.perf_counter() - start
        ok = agreements == 9 and elapsed < budget
        return ok, f"{agreements}/9 verdict agreements, {elapsed:.2f}s"

    criterion(check)


def test_a13_band_survey(criterion):
    def check():
        budget = 600.0
        start = time.perf_counter()
        sys = ifs.cantor_product(1)
        bands = scan.survey(
            sys, ApproxFunction.power_log(1.0, 1.5), 1000, 10_000, seed=0
        )
        fracs = [b.fraction for b in bands]
        tail = [f for b, f in zip(bands, fracs) if b.k >= 5]
        monotone = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        top_small = fracs[-1] <= 0.05
        ones = ApproxFunction.power_log(1.0, 0.0)
        control = scan.survey(sys, ones, 1000, 10_000, seed=0)
        control_ok = all(b.fraction == 1.0 for b in control)
        elapsed = time.perf_counter() - start
        ok = monotone and top_small and control_ok and elapsed < budget
        shown = ", ".join(f"{f:.3f}" for f in fracs)
        return ok, (
            f"fractions [{shown}]; monotone k>=5: {monotone}, top {fracs[-1]:.3f} "
            f"<= 0.05: {top_small}, control all ones: {control_ok}, {elapsed:.0f}s"
        )

    criterion(check)
