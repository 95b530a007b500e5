"""Brute-force psi-approximability scanning and the hit <-> height bridge.

A hit at q is ||q x - p||_inf < psi(q) with p the coordinatewise nearest
integer vector (ties to even).  Every psi(q) a hit is decided against is the
libm value ``ApproxFunction.__call__`` returns, so hit sets do not depend on
numpy's CPU dispatch.  Rational x is scanned in integers: with x_j = A_j / B
over a common denominator, q is a hit when max_j |q A_j - p_j B| * n < m * B
for psi(q) = m / n, and only hits turn their error into a float.  Other x run
in doubles, with numpy's array psi as a filter and the libm psi deciding every
q near it.

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
# The float scan decides with the libm psi every q whose error is at most
# (1 + _PSI_WINDOW) times numpy's psi; the two psi differ by under 4e-15.
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


def _exact_hits(x_exact: Sequence[Fraction], psi: ApproxFunction, q_max: int) -> list[HitRecord]:
    d = len(x_exact)
    big_b = math.lcm(*(xe.denominator for xe in x_exact))
    nums = [xe.numerator * (big_b // xe.denominator) for xe in x_exact]
    out = []
    for lo in range(1, q_max + 1, _Q_CHUNK):
        hi = min(lo + _Q_CHUNK, q_max + 1)
        for q, psi_q in zip(range(lo, hi), psi(np.arange(lo, hi, dtype=float)).tolist()):
            p, e_max = [], 0
            for a_j in nums:
                # q A_j / B rounded half to even, and its residue |q A_j - p_j B|
                p_j, rem = divmod(q * a_j, big_b)
                if 2 * rem > big_b or (2 * rem == big_b and p_j & 1):
                    p_j, rem = p_j + 1, big_b - rem
                p.append(p_j)
                e_max = max(e_max, rem)
            m, n = psi_q.as_integer_ratio()
            if e_max * n < m * big_b:
                out.append(_make_record(q, np.array(p, dtype=int), e_max / big_b, psi_q, d))
    return out


def scan_hits(x, psi: ApproxFunction, q_max: int, x_exact: Sequence[Fraction] | None = None) -> list[HitRecord]:
    """All q in [1, q_max] with ||q x - p||_inf < psi(q), nearest p.

    Every hit is decided against the libm ``psi(q)`` and carries it in its
    margin.  With x_exact the comparison is exact, in integers, and the error
    of a hit is correctly rounded.  Otherwise x is scanned in doubles one
    chunk of q at a time: numpy's psi filters the chunk, and the libm psi
    decides each q whose error is below numpy's psi or within a relative
    ``_PSI_WINDOW`` above it.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    if not q_max * np.max(np.abs(x)) < 2.0**63:
        # every p_j = round(q x_j) is stored as an int64
        raise ValueError("q_max * |x_j| must stay below 2^63 for every component")
    if x_exact is not None:
        if len(x_exact) != d:
            raise ValueError("x_exact length mismatch")
        return _exact_hits(x_exact, psi, q_max)
    out: list[HitRecord] = []
    for lo in range(1, q_max + 1, _Q_CHUNK):
        qs = np.arange(lo, min(lo + _Q_CHUNK, q_max + 1))
        qx = qs[:, None] * x[None, :]
        p = np.rint(qx)
        err = np.max(np.abs(qx - p), axis=1)
        psi_np = np.exp(psi.log_eval(np.log(qs)))
        near = np.flatnonzero(err <= (1.0 + _PSI_WINDOW) * psi_np)
        for i, psi_q in zip(near.tolist(), psi(qs[near].astype(float)).tolist()):
            err_q = float(err[i])
            if err_q < psi_q:
                out.append(_make_record(lo + i, p[i].astype(int), err_q, psi_q, d))
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
    converse_violations = []
    crossings = 0
    times_checked = 0
    for t, r_val, (delta, u, coeffs) in zip(ts.tolist(), rate(ts).tolist(), _grid_walk(x, ts)):
        if t - r_val > math.log(q_max) - 1e-9:
            continue  # witness q could exceed the scan range; the walk goes on
        times_checked += 1
        l_val = -math.log(delta)
        if l_val < r_val + tol:
            continue
        crossings += 1
        witness = _witness(u, coeffs)
        q = int(witness[0])
        p = -np.asarray(witness[1:], dtype=int)
        err = float(np.max(np.abs(q * x - p))) if q != 0 else math.inf
        psi_q = float(psi(q)) if q >= 1 else math.nan
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
