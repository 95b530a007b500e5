"""Brute-force psi-approximability scanning and the hit <-> height bridge.

A hit at q is ||q x - p||_inf < psi(q) with p the coordinatewise nearest
integer vector (ties to even).  Every psi(q) a hit is decided against is the
libm value ``ApproxFunction.__call__`` returns, so hit sets do not depend on
numpy's CPU dispatch.  The scan filters, then decides: per dyadic band of q,
a vectorised float error is compared with one envelope, the libm psi at the
band's first q widened by ``_PSI_WINDOW``, and only the q under it are
decided.  A float x is decided by the libm psi.  A rational x is decided in
integers: with x_j = A_j / B over a common denominator, q is a hit when
max_j |q A_j - p_j B| * n < m * B for psi(q) = m / n, and only hits turn
their error into a float.

The bridge: a hit balances the lattice vector (e^{-t} q, e^{t/d}(q x - p))
at t* = d/(d+1) (log q - log E), forcing the orbit height l(a_t u_x) up to
r(t*); conversely any time with l >= r + tol hands back a witness (q, p)
with q <= e^{t - r(t)} and error below psi(q) by the factor e^{-tol}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .dani import ApproxFunction, RateFunction
from .flows import diagonal_point
from .ifs import IfsSystem, diameter_estimate, rounding_bound, sample_fractal
from .lattices import _flow_walk, _witness, height

_Q_CHUNK = 1 << 15
# step in t of dani_cross_check's converse grid
_GRID_STEP = 0.05
# scan_hits decides every q of a dyadic band whose float error is at most
# (1 + _PSI_WINDOW) times the libm psi at the band's first q; within a band
# the libm psi rises above that value by less than 1e-10 (scan_hits)
_PSI_WINDOW = 1e-9
# survey folds coordinate 0 over blocks of at most this many (point, q) pairs
# (one q at least), so that its two float buffers stay in a core's cache
_SURVEY_BLOCK = 1 << 16


@dataclass(frozen=True)
class HitRecord:
    q: int
    p: np.ndarray
    error: float  # ||x - p/q||_inf
    margin: float  # psi(q)/q - error
    witness_time: float  # inf when error is exactly zero

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be a positive integer")


@dataclass(frozen=True)
class CrossCheckReport:
    hits: list  # every HitRecord of the scan, in q order
    hits_checked: int
    degenerate_skipped: int
    below_domain_skipped: int
    direct_violations: list
    times_checked: int
    crossings: int
    converse_violations: list


@dataclass(frozen=True)
class BandStat:
    k: int
    q_lo: int
    q_hi: int
    n_points: int
    n_certain: int
    n_uncertain: int

    @property
    def fraction(self) -> float:
        return self.n_certain / self.n_points


def parse_point(text: str):
    """Parse "0.5", "3/7", "golden", or comma-separated components.

    Returns (float d-vector, list of Fractions or None); the exact list is
    present only when every component is rational.
    """
    parts = [p.strip() for p in text.split(",")]
    floats = np.empty(len(parts))
    exact: list[Fraction] | None = []
    for i, p in enumerate(parts):
        if p == "golden":
            floats[i] = (math.sqrt(5.0) - 1.0) / 2.0
            exact = None
        else:
            frac = Fraction(p)
            try:
                floats[i] = float(frac)
            except OverflowError:
                raise ValueError(f"component {p} is too large for a float") from None
            if exact is not None:
                exact.append(frac)
    return floats, exact


def _make_record(q: int, p: np.ndarray, err_q: float, psi_q: float, d: int) -> HitRecord:
    if err_q == 0.0:
        t_star = math.inf
    else:
        t_star = d / (d + 1) * (math.log(q) - math.log(err_q))
    return HitRecord(
        q=q,
        p=p,
        error=err_q / q,
        margin=(psi_q - err_q) / q,
        witness_time=t_star,
    )


def _exact_decision(q: int, nums: list[int], big_b: int, psi_q: float):
    """(p, error) of q for x_j = A_j / B when it is a hit, else None.

    p_j is q A_j / B rounded half to even, and q is a hit when max_j |q A_j -
    p_j B| * n < m * B for psi_q = m / n; the error is that max over B,
    correctly rounded.
    """
    p, e_max = [], 0
    for a_j in nums:
        p_j, rem = divmod(q * a_j, big_b)
        if 2 * rem > big_b or (2 * rem == big_b and p_j & 1):
            p_j, rem = p_j + 1, big_b - rem
        p.append(p_j)
        e_max = max(e_max, rem)
    m, n = psi_q.as_integer_ratio()
    if e_max * n < m * big_b:
        return np.array(p, dtype=int), e_max / big_b
    return None


def scan_hits(x, psi: ApproxFunction, q_max: int, x_exact: Sequence[Fraction] | None = None) -> list[HitRecord]:
    """All q in [1, q_max] with ||q x - p||_inf < psi(q), nearest p.

    Every hit is decided against the libm ``psi(q)`` and carries it in its
    margin.  With x_exact the decision is exact, in integers, and the error
    of a hit is correctly rounded; x is then read as the floats of x_exact.

    Filter, then decide.  Each dyadic band [2^k, 2^(k+1)) of q is swept one
    ``_Q_CHUNK`` at a time for the float error err(q) = max_j |fl(q x_j) -
    rint(fl(q x_j))|, and only the q with err(q) <= E_k + S q_hi are decided,
    where E_k = max(psi(2^k), 2^-1022) (1 + ``_PSI_WINDOW``) is the band's
    envelope, q_hi its last q, and S the slack below (0 for a float x).  No
    hit is filtered out:

    - psi is nonincreasing.  In exact arithmetic the chain ``__call__``
      evaluates is L(q) = log c - a log q' - b log(log(e + q')) with q' =
      max(q, x0), and a, b >= 0.
    - The libm chain rises little.  Taking each libm log, exp and log1p
      within an ulp, the computed L(q) is within 2^-48 (|log c| + a u + b v
      + b) of the exact one, u and v being the computed log q' and
      log(log(e + q')).  Where psi(q) is a normal float, L(q) >= -708.4 and
      log c <= 709.8 give a u + b v <= 1419, v >= log log(e + 1) gives
      b <= 5210, and |log c| <= 744.5.  So for q in the band the computed
      L(q) exceeds the computed L(2^k) by at most 6e-11, and psi(q) <=
      psi(2^k) (1 + 1e-10).
    - The floor.  Where psi(2^k) is subnormal or zero, e^L(2^k) < 2^-1022,
      so a normal psi(q) is below 2^-1022 (1 + 1e-10); a subnormal psi(q)
      is below 2^-1022.  Either way psi(q) < E_k.
    - The slack.  A float x is filtered on the very err(q) it is decided on,
      so a hit has err(q) < psi(q) < E_k.  For x_exact, err(q) is read from
      x_j' = float(x_exact_j), correctly rounded, and distance to the nearest
      integer is 1-Lipschitz, so err(q) lies within q (2^-53 |x_j| + 2^-53
      |x_j'| + 2^-1074) <= q 2^-51 X (1 + 2^-54) of the exact error, X =
      max(max_j |x_j'|, 2^-1022) (the subtraction of rint and the max are
      exact).  S = 2^-50 X is about twice that per q; the spare half covers
      the roundings of S q_hi and of the sum.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x_exact is not None:
        if len(x_exact) != x.size:
            raise ValueError("x_exact length mismatch")
        x = np.array([float(xe) for xe in x_exact])
    d = x.size
    x_max = float(np.max(np.abs(x)))
    if not q_max * x_max < 2.0**63:
        # every p_j = round(q x_j) is stored as an int64
        raise ValueError("q_max * |x_j| must stay below 2^63 for every component")
    slack = 0.0 if x_exact is None else 2.0**-50 * max(x_max, 2.0**-1022)
    n_bands = q_max.bit_length()
    envelopes = np.maximum(psi(np.ldexp(1.0, np.arange(n_bands))), 2.0**-1022) * (1.0 + _PSI_WINDOW)
    size = min(_Q_CHUNK, q_max)
    steps = np.arange(size, dtype=float)
    q_buf, err_buf, qx_buf, rint_buf = (np.empty(size) for _ in range(4))
    # filter: the q of each band whose float error is within its bound
    candidates = []
    for k, envelope in enumerate(envelopes.tolist()):
        band_end = min(2 << k, q_max + 1)
        bound = envelope + (band_end - 1) * slack
        for lo in range(1 << k, band_end, _Q_CHUNK):
            n = min(_Q_CHUNK, band_end - lo)
            qs, err, qx = np.add(steps[:n], lo, out=q_buf[:n]), err_buf[:n], qx_buf[:n]
            for j, x_j in enumerate(x.tolist()):
                np.multiply(qs, x_j, out=qx)
                np.subtract(qx, np.rint(qx, out=rint_buf[:n]), out=qx)
                if j:
                    np.maximum(err, np.abs(qx, out=qx), out=err)
                else:
                    np.abs(qx, out=err)
            candidates.append(qs[err <= bound])
    # decide: the float errors again, now with p, and one libm psi call
    qs = np.concatenate(candidates)
    qx = qs[:, None] * x
    p = np.rint(qx)
    err = np.max(np.abs(qx - p), axis=1)
    if x_exact is not None:
        big_b = math.lcm(*(xe.denominator for xe in x_exact))
        nums = [xe.numerator * (big_b // xe.denominator) for xe in x_exact]
    out = []
    decided = zip(qs.astype(int).tolist(), p.astype(int), err.tolist(), psi(qs).tolist())
    for q, p_q, err_q, psi_q in decided:
        if x_exact is not None:
            hit = _exact_decision(q, nums, big_b, psi_q)
            if hit is None:
                continue
            p_q, err_q = hit
        elif not err_q < psi_q:
            continue
        out.append(_make_record(q, p_q, err_q, psi_q, d))
    return out


def _grid_walk(x: np.ndarray, ts: np.ndarray):
    """Shortest vectors of a_t u_x at the times ``ts``, which must be spaced
    ``_GRID_STEP`` apart, walked along the diagonal flow
    (``lattices._flow_walk``).

    Yields, per time, (Delta, U, coeffs) with U the integer rows taking the
    dual basis of a_t u_x to the reduced rows, and coeffs every minimizer
    w.r.t. the reduced rows, as ``lattices._reduce`` gives them.  Only the
    first basis is reduced cold; each step's U is composed with the previous
    ones in Python ints.
    """
    if not ts.size:
        return
    u_total = None
    for _, u, delta, coeffs in _flow_walk(x, float(ts[0]), _GRID_STEP, ts.size - 1):
        if u_total is not None:
            u = [[sum(map(mul, row, col)) for col in zip(*u_total)] for row in u]
        u_total = u
        yield delta, u_total, coeffs


def dani_cross_check(
    x,
    psi: ApproxFunction,
    d: int,
    q_max: int,
    tol: float = 1e-6,
    x_exact: Sequence[Fraction] | None = None,
) -> CrossCheckReport:
    """Hit times push the orbit above r; crossings hand back hits.

    Direct: every non-degenerate hit of ``scan_hits`` (returned in ``hits``)
    must satisfy l(a_{t*} u_x) >= r(t*) - tol.
    Converse: on the t grid of step ``_GRID_STEP`` over
    [t0 + 1e-6, d/(d+1) log q_max + 5), restricted to t - r(t) <= log q_max,
    every time with l >= r + tol must yield a witness with 1 <= q <= e^t + 1
    and ||q x - p||_inf < psi(q).  The grid is walked along the flow
    (``_grid_walk``); each hit's lattice is built and reduced cold, so the
    two checks share no reduced basis.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        # a nan tol passes every height test, an infinite one checks no crossing
        raise ValueError(f"tol must be finite and positive, got {tol}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != d:
        raise ValueError("x has wrong dimension")
    rate = RateFunction(psi, d)
    t0 = rate.t_start
    hits = scan_hits(x, psi, q_max, x_exact=x_exact)
    checked = [hit for hit in hits if math.isfinite(hit.witness_time) and hit.witness_time >= t0]
    degenerate = sum(not math.isfinite(hit.witness_time) for hit in hits)
    below_domain = len(hits) - degenerate - len(checked)
    direct_violations = []
    r_checked = rate(np.array([hit.witness_time for hit in checked]))
    for hit, r_val in zip(checked, r_checked.tolist()):
        l_val = height(diagonal_point(x, hit.witness_time))
        if l_val < r_val - tol:
            direct_violations.append((hit.q, hit.witness_time, l_val, r_val))
    ts = np.arange(t0 + 1e-6, d / (d + 1) * math.log(q_max) + 5.0, _GRID_STEP)
    crossings = 0
    times_checked = 0
    crossing_times, witnesses = [], []
    for t, r_val, (delta, u, coeffs) in zip(ts.tolist(), rate(ts).tolist(), _grid_walk(x, ts)):
        if t - r_val > math.log(q_max) - 1e-9:
            continue  # witness q could exceed the scan range; the walk goes on
        times_checked += 1
        l_val = -math.log(delta)
        if l_val < r_val + tol:
            continue
        crossings += 1
        crossing_times.append(t)
        witnesses.append(_witness(u, coeffs))
    # every witness is judged after the walk, on one libm psi call
    w = np.array(witnesses, dtype=np.int64).reshape(-1, d + 1)
    qs = w[:, 0]
    errs = np.max(np.abs(qs[:, None] * x + w[:, 1:]), axis=1)
    psi_qs = psi(np.maximum(qs, 1).astype(float))
    converse_violations = []
    for t, q, err, psi_q in zip(crossing_times, qs.tolist(), errs.tolist(), psi_qs.tolist()):
        err = err if q != 0 else math.inf
        psi_q = psi_q if q >= 1 else math.nan
        if q < 1 or q > math.exp(t) + 1.0 or not err < psi_q:
            converse_violations.append((t, q, err, psi_q))
    return CrossCheckReport(
        hits=hits,
        hits_checked=len(checked),
        degenerate_skipped=degenerate,
        below_domain_skipped=below_domain,
        direct_violations=direct_violations,
        times_checked=times_checked,
        crossings=crossings,
        converse_violations=converse_violations,
    )


def _guard_radius(sys: IfsSystem, depth: int, coords: np.ndarray) -> float:
    """Per unit of q, how far a survey error may lie from a true one.

    For a sampled float point y and any attractor point x coded by an
    infinite extension of y's word, the computed error max_j |fl(q y_j) -
    rint(fl(q y_j))| lies within q * radius of the distance from q x to the
    nearest integer vector.  The radius sums the coding truncation
    kappa^depth * diam, the float error ``ifs.rounding_bound`` of y, and the
    rounding of q y_j (at most 2^-53 |q y_j|; the subtraction of rint and the
    max are exact).  The last factor covers the roundings of this sum and of
    q * radius.
    """
    trunc = sys.kappa**depth * diameter_estimate(sys)
    q_rounding = 2.0**-53 * float(np.max(np.abs(coords)))
    return (trunc + rounding_bound(sys) + q_rounding) * (1.0 + 2.0**-50)


def survey(
    sys: IfsSystem,
    psi: ApproxFunction,
    sample_count: int,
    q_max: int,
    depth: int | None = None,
    seed: int = 0,
) -> list[BandStat]:
    """Per-point hit presence in dyadic q bands over a fractal sample.

    A band hit is `certain` only when its float margin psi(q) - err exceeds
    the guard q * ``_guard_radius``, which covers the coding truncation and
    the float error of the point and of q x; points whose best margin in a
    band is inside the guard are reported `uncertain`, not counted as hits.

    Coordinate 0 alone is folded over every (point, q) pair, into margin_0 =
    psi(q) - err_0.  Only the pairs with margin_0 >= -guard are finished over
    the other coordinates.  The counts are those of folding every coordinate
    over every pair: the max is exact, so err >= err_0, and IEEE subtraction
    is monotone, so margin <= margin_0; a dropped pair has margin < -guard
    and is neither certain nor uncertain.  A nan psi(q) fails every test on
    both routes.
    """
    if sample_count < 1 or q_max < 1:
        raise ValueError("need sample_count >= 1 and q_max >= 1")
    if depth is None:
        depth = sys.default_depth()
    coords = np.ascontiguousarray(
        sample_fractal(sys, sample_count, depth=depth, seed=seed).T
    )  # (d, N): one row per coordinate
    radius = _guard_radius(sys, depth, coords)
    x_0 = coords[0][:, None]
    n_bands = q_max.bit_length()
    chunk = max(1, _SURVEY_BLOCK // sample_count)
    err_buf, margin_buf = (np.empty((sample_count, min(chunk, q_max))) for _ in range(2))
    stats = []
    for k in range(n_bands):
        q_lo = 2**k
        q_hi = min(2 ** (k + 1) - 1, q_max)
        certain = np.zeros(sample_count, dtype=bool)
        uncertain = np.zeros(sample_count, dtype=bool)
        qs_all = np.arange(q_lo, q_hi + 1)
        for lo in range(0, qs_all.size, chunk):
            qs = qs_all[lo : lo + chunk].astype(float)
            psi_q = np.broadcast_to(np.asarray(psi(qs), dtype=float), qs.shape)
            guard = qs * radius
            err = err_buf[:, : qs.size]
            margin = margin_buf[:, : qs.size]
            np.multiply(x_0, qs, out=err)
            np.rint(err, out=margin)
            np.subtract(err, margin, out=err)
            np.abs(err, out=err)
            np.subtract(psi_q, err, out=margin)
            rows, cols = np.divmod(np.flatnonzero(margin >= -guard), qs.size)
            # finish the kept pairs: err = max_j |q x_j - rint(q x_j)|
            pair_err = err[rows, cols]
            pair_q = qs[cols]
            for x_j in coords[1:]:
                qx = x_j[rows] * pair_q
                np.maximum(pair_err, np.abs(qx - np.rint(qx)), out=pair_err)
            pair_margin = psi_q[cols] - pair_err
            pair_guard = guard[cols]
            certain[rows[pair_margin > pair_guard]] = True
            uncertain[rows[np.abs(pair_margin) <= pair_guard]] = True
        uncertain &= ~certain
        stats.append(
            BandStat(
                k=k,
                q_lo=q_lo,
                q_hi=q_hi,
                n_points=sample_count,
                n_certain=int(certain.sum()),
                n_uncertain=int(uncertain.sum()),
            )
        )
    return stats
