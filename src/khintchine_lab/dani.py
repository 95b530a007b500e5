"""The psi <-> r correspondence and series/integral convergence bookkeeping.

The approximation speed is the power-log family psi(x) = c x^{-a}
(log(e+x))^{-b} on [x0, inf).  It trades places with a rate function r on
[t0, inf) through the balance psi(e^{t-r}) = e^{-t/d-r};
t0 = d/(d+1) log x0 - 1/(d+1) log psi(x0).  For d >= 2 the balance at t0 can
land slightly below x0, so psi is extended by its value at x0 there; x(t0) =
e^{t0 - r(t0)} is the exact lower edge of the correspondence.

For b = 0 the rate is affine, r(t) = (a - 1/d) t/(1+a) - log(c)/(1+a); for
b > 0 it picks up a +(b/(1+a)) log t correction.  These two coefficients are
what the convergence classifications run on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

R_INTERVAL_TOL = 1e-13
# the balance residual may be this many times the first-order bound of
# _check_balance
RESIDUAL_FACTOR = 8.0
BORDERLINE_TOL = 1e-12
# psi_from_r cuts its t-interval into 2**_T_LEVELS cells per array call of r
_T_LEVELS = 6
# Most unit panels a truncation of equivalence_check may lie above t0: every
# panel below the largest truncation is one lockstep rate call's 20 nodes,
# about 4.8 KB and 0.1 ms per panel, so 20,000 panels hold about 100 MB
PANEL_LIMIT = 20_000

# The 20-point Gauss-Legendre rule on [-1, 1]: the positive roots of P_20 and
# their weights, each rounded to nearest from a 60-digit mpmath Newton
# iteration on the three-term recurrence.  As a literal table the rule does
# not depend on libm or LAPACK (tests/test_dani.py recomputes it).
_GL_HALF = (
    (0.07652652113349734, 0.15275338713072584),
    (0.22778585114164507, 0.14917298647260374),
    (0.37370608871541955, 0.14209610931838204),
    (0.5108670019508271, 0.13168863844917664),
    (0.636053680726515, 0.11819453196151841),
    (0.7463319064601508, 0.10193011981724044),
    (0.8391169718222188, 0.08327674157670475),
    (0.912234428251326, 0.06267204833410907),
    (0.9639719272779138, 0.04060142980038694),
    (0.9931285991850949, 0.017614007139152118),
)
_GL_NODES = np.array([-x for x, _ in reversed(_GL_HALF)] + [x for x, _ in _GL_HALF])
_GL_WEIGHTS = np.array([w for _, w in reversed(_GL_HALF)] + [w for _, w in _GL_HALF])


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """fn, a ``math`` function, applied to each entry of values."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


class InvalidPsiError(ValueError):
    """A root of the balance failed its residual check or could not be
    bracketed; psi is not usably monotone."""


@dataclass(frozen=True)
class ApproxFunction:
    """The power-log psi(x) = c x^{-a} (log(e+x))^{-b}, frozen at
    psi(domain_start) below domain_start."""

    domain_start: float
    c: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.domain_start, self.c, self.a, self.b)):
            raise ValueError("power_log needs finite c, a, b and domain_start")
        if self.domain_start <= 0.0:
            raise ValueError("domain_start must be positive")
        if self.c <= 0.0 or self.a < 0.0 or self.b < 0.0:
            raise ValueError("power_log needs c > 0, a >= 0, b >= 0")

    @classmethod
    def power_log(cls, c: float, a: float, b: float = 0.0, x0: float = 1.0) -> "ApproxFunction":
        return cls(domain_start=float(x0), c=float(c), a=float(a), b=float(b))

    def log_eval(self, u):
        """log psi at x = e^u, vectorized, stable for large |u|."""
        u = np.asarray(u, dtype=float)
        u_eff = np.maximum(u, math.log(self.domain_start))
        # log(e + x) = logaddexp(1, u) without forming e^u
        out = math.log(self.c) - self.a * u_eff - self.b * np.log(np.logaddexp(1.0, u_eff))
        return out if out.ndim else float(out)

    def __call__(self, x):
        """psi at x, a float or an array of floats, from libm.

        The formula is ``log_eval``'s with x clipped to [x0, inf), but every
        log, exp and log1p is a ``math`` call on one value (the +, - and *
        between them are IEEE in any loop), so no psi value depends on the
        SIMD loops numpy dispatches for its array ``log`` and ``exp``.
        """
        x = np.asarray(x, dtype=float)
        u = _libm(math.log, np.maximum(x, self.domain_start))
        log_psi = math.log(self.c) - self.a * u
        if self.b:
            # numpy's logaddexp(1, u): the larger argument plus log1p(e^-gap)
            lae = np.maximum(u, 1.0) + _libm(math.log1p, _libm(math.exp, -np.abs(1.0 - u)))
            log_psi -= self.b * _libm(math.log, lae)
        out = _libm(math.exp, log_psi)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {
            "family": "power_log",
            "c": self.c,
            "a": self.a,
            "b": self.b,
            "x0": self.domain_start,
        }


def t0_of(psi: ApproxFunction, d: int) -> float:
    # boundary balance: t - r = log x0 and psi(x0) = e^{-t/d - r}; every r
    # route starts here, so d is checked here
    if not d >= 1:
        raise ValueError(f"dimension d must be at least 1, got {d}")
    x0 = psi.domain_start
    return d / (d + 1) * (math.log(x0) - float(psi.log_eval(math.log(x0))))


def _r_lockstep(psi: ApproxFunction, d: int, t: np.ndarray) -> np.ndarray:
    """r at every entry of the 1-d array t, by bisection in one array loop.

    G(r) = log psi(e^{t-r}) + t/d + r has G' = 1 + m >= 1, m = -d log psi /
    d log x >= 0, so the root lies between 0 and -G(0).  Each lane brackets
    it from one evaluation of G(0), widened on each side by 1 + 2^-40 |G(0)|
    for the rounding of G(0) (past |G(0)| = 2^53 a slack of 1 alone would be
    rounded away), then halves its interval until it is narrower than
    ``R_INTERVAL_TOL`` or its ends are adjacent floats (|r| >= 512), and
    checks the balance residual.  Every step is elementwise IEEE arithmetic
    on the lane's own t, so a lane gets the floats it would get alone; a
    lane that is done drops out and the others go on.  Each lane's root
    goes through ``_check_balance``; on failure the error names the first
    failing t in input order.
    """
    t_over_d = t / d

    def g(lanes, r):
        return psi.log_eval(t[lanes] - r) + t_over_d[lanes] + r

    g0 = psi.log_eval(t) + t_over_d
    slack = 1.0 + 2.0**-40 * np.abs(g0)
    lo = np.minimum(-g0, 0.0) - slack
    hi = np.maximum(-g0, 0.0) + slack
    active = np.flatnonzero(hi - lo > R_INTERVAL_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        inside = (lo[active] < mid) & (mid < hi[active])
        active, mid = active[inside], mid[inside]
        below = g(active, mid) < 0.0
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > R_INTERVAL_TOL]
    r = 0.5 * (lo + hi)
    _check_balance(psi, d, t, r)
    return r


def _check_balance(psi: ApproxFunction, d: int, t: np.ndarray, r: np.ndarray) -> None:
    """Raise ``InvalidPsiError``, naming the first failing t in input order,
    unless psi(e^{t-r}) meets e^{-t/d-r} at every lane as closely as the
    bisection resolves r.

    Relative to psi the residual psi - e^{-t/d-r} is G(r) to first order, and
    G' = 1 + m lies in [1, 1 + a + b].  A bisected r is within the spacing at
    which the bisection stops of the root (``R_INTERVAL_TOL``, or an ulp of r
    past |r| = 512), and G is read from t - r and t/d + r, each rounded to an
    ulp of t or r.  So |residual| may be ``RESIDUAL_FACTOR`` (1 + a + b)
    times the largest of those spacings, times psi; psi is floored at the
    smallest normal float, below which it carries fewer bits.  A nan
    residual fails, and so does one where either side overflows.
    """
    spacing = np.maximum(np.spacing(np.maximum(np.abs(t), np.abs(r))), R_INTERVAL_TOL)
    bounds = RESIDUAL_FACTOR * (1.0 + psi.a + psi.b) * spacing
    tiny = sys.float_info.min
    for ti, ri, lp, bound in zip(t.tolist(), r.tolist(), psi.log_eval(t - r).tolist(), bounds.tolist()):
        try:
            psi_t = math.exp(lp)
            residual = psi_t - math.exp(-ti / d - ri)
        except OverflowError:
            # e^709 is the largest float: no balance here, and a finite bound
            psi_t, residual = 0.0, math.inf
        if not abs(residual) <= bound * (psi_t if psi_t > tiny else tiny):
            raise InvalidPsiError(f"balance residual {residual:.3g} at t={ti:.6g}")


def r_from_psi(psi: ApproxFunction, d: int, t):
    """The unique r with psi(e^{t-r}) = e^{-t/d-r}, by bisection.

    A scalar t runs as a one-lane array and gives a float, the same float as
    at that t in any array.  For b = 0 this equals
    (a - 1/d) t/(1+a) - log(c)/(1+a).
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite")
    t_min = t0_of(psi, d) - 1e-9
    if np.any(t_arr < t_min):
        raise ValueError(f"t below domain start {t_min + 1e-9:.6g}")
    r = _r_lockstep(psi, d, t_arr.ravel())
    return float(r[0]) if t_arr.ndim == 0 else r.reshape(t_arr.shape)


@dataclass(frozen=True)
class RateFunction:
    """The rate r of psi in dimension d, on [t_start, inf);
    r(t) = slope*t + log_coeff*log t + O(1)."""

    psi: ApproxFunction
    d: int

    @property
    def t_start(self) -> float:
        return t0_of(self.psi, self.d)

    @property
    def slope(self) -> float:
        return (self.psi.a - 1.0 / self.d) / (1.0 + self.psi.a)

    @property
    def log_coeff(self) -> float:
        return self.psi.b / (1.0 + self.psi.a)

    def __call__(self, t):
        return r_from_psi(self.psi, self.d, t)

    def check_monotonicity(self, span: float = 30.0, n: int = 1000) -> bool:
        """t - r strictly increasing, t/d + r non-decreasing (to 1e-9), on a grid."""
        ts = np.linspace(self.t_start, self.t_start + span, n)
        rs = self(ts)
        if np.any(np.diff(ts - rs) <= 0.0):
            raise ValueError("t - r(t) is not strictly increasing")
        if np.any(np.diff(ts / self.d + rs) < -1e-9):
            raise ValueError("t/d + r(t) decreases")
        return True


def psi_from_r(rate: RateFunction, x: float) -> float:
    """psi(x) = e^{-t/d - r(t)} at the unique t with e^{t - r(t)} = x,
    d = rate.d.

    g(t) = t - r(t) - log x has slope (1 + 1/d)/(1 + m) with m = -d log psi
    / d log x in [0, a + b], so its root lies within -g(t0) (1 + a + b)/(1 +
    1/d) of t0; hi takes that reach, widened by 2^-40 of it and by 1, and
    g(hi) is checked.  Each round sends the 2^``_T_LEVELS`` - 1 evenly spaced
    interior points of [lo, hi] to r in one array call and keeps the cell
    where the sign changes, until it is narrower than ``R_INTERVAL_TOL`` or
    its ends are adjacent floats (t >= 512).
    """
    log_x = math.log(x)
    t0 = rate.t_start

    def g(t):
        return t - rate(t) - log_x

    g0 = g(t0)
    if g0 > 1e-9:
        raise ValueError(f"x={x:.6g} below the domain edge e^(t0 - r(t0))")
    reach = -g0 * (1.0 + rate.psi.a + rate.psi.b) / (1.0 + 1.0 / rate.d)
    lo, hi = t0, t0 + reach * (1.0 + 2.0**-40) + 1.0
    if g(hi) < 0.0:
        raise InvalidPsiError(f"no upper bracket for t at x={x:.6g}")
    while hi - lo > R_INTERVAL_TOL and math.nextafter(lo, hi) < hi:
        edges = np.linspace(lo, hi, 2**_T_LEVELS + 1)
        # the cell ends at the first interior point where g is not below 0,
        # or at hi if there is none
        k = int(np.argmin(np.append(g(edges[1:-1]) < 0.0, False)))
        lo, hi = float(edges[k]), float(edges[k + 1])
    t = 0.5 * (lo + hi)
    return math.exp(-t / rate.d - float(rate(t)))


# ---------------------------------------------------------------------------
# convergence classification


def _power_verdict(power: float, log_power: float) -> str:
    """Convergence of the sum/integral of x^power (log x)^(-log_power) dx:
    "converges" or "diverges"."""
    scale = max(1.0, abs(power))
    if abs(power + 1.0) <= BORDERLINE_TOL * scale:
        return "converges" if log_power > 1.0 else "diverges"
    return "converges" if power < -1.0 else "diverges"


def _check_exponent(name: str, value: float) -> None:
    # nan passes a plain "value <= 0" test and would classify vacuously
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def classify_khintchine_series(psi: ApproxFunction, d: int, alpha: float) -> str:
    """Convergence of sum x^(alpha/d - 1) psi(x)^alpha: "converges" or "diverges"."""
    _check_exponent("alpha", alpha)
    power = alpha / d - 1.0 - psi.a * alpha
    return _power_verdict(power, psi.b * alpha)


def classify_rate_series(rate: RateFunction, gamma: float) -> str:
    """Convergence of sum_t exp(-gamma r(t)): "converges" or "diverges"."""
    _check_exponent("gamma", gamma)
    s = rate.slope
    if abs(s) <= BORDERLINE_TOL:
        return "converges" if gamma * rate.log_coeff > 1.0 else "diverges"
    return "converges" if s > 0.0 else "diverges"


@dataclass(frozen=True)
class EquivalenceReport:
    gamma: float
    truncations: tuple
    i_psi: np.ndarray
    i_r: np.ndarray
    ratios: np.ndarray
    psi_verdict: str
    rate_verdict: str
    agree: bool
    q0_psi_verdict: str
    q0_rate_verdict: str
    q0_agree: bool


def _exp_partials(g: Callable, lo: float, his: Sequence[float]) -> np.ndarray:
    """The integral of e^g over [lo, h] for each h in ``his`` (all above lo).

    A composite Gauss-Legendre rule, 20 nodes per panel.  Every h takes the
    full unit panels [lo + k, lo + k + 1] below it, which all truncations
    share, and its own tail panel [lo + floor(h - lo), h], so each partial is
    the one h would get alone.  g sees every node in one array call, e^g is
    taken with ``math.exp``, and each partial is the correctly rounded sum
    (``math.fsum``) of its weighted values.
    """
    n_full = [math.floor(h - lo) for h in his]
    k = np.arange(max(n_full))
    left = np.concatenate([lo + k, lo + np.array(n_full, dtype=float)])
    half = 0.5 * (np.concatenate([lo + (k + 1), his]) - left)
    nodes = (left + half)[:, None] + half[:, None] * _GL_NODES
    values = np.array([math.exp(v) for v in g(nodes.ravel()).tolist()])
    terms = (half[:, None] * _GL_WEIGHTS) * values.reshape(nodes.shape)
    full, tails = terms[: k.size], terms[k.size :]
    return np.array([math.fsum(full[:n].ravel().tolist() + tail.tolist()) for n, tail in zip(n_full, tails)])


def equivalence_check(
    psi: ApproxFunction, d: int, alpha: float, grid: Sequence[float] = (10.0, 20.0, 40.0, 60.0)
) -> EquivalenceReport:
    """Partial integrals of x^(alpha/d-1) psi^alpha dx and e^(-gamma r) dt on
    matched truncations x(T) = e^(T - r(T)), gamma = alpha (d+1)/d.

    Under the substitution x = e^(t - r(t)) the first integrand becomes
    (1 - r'(t)) e^(-gamma r(t)), so for affine r the ratio of the partials is
    the constant 1 - slope.  The q = 0 variant compares the integral of
    psi(x)^d dx (the d-th power makes the same substitution exact) against
    the integral of e^(-(d+1) r) dt.  Both partials go through
    ``_exp_partials``; r at every node of every truncation is one lockstep
    ``rate`` call.
    """
    _check_exponent("alpha", alpha)
    if not len(grid):
        raise ValueError("truncation grid is empty: no partial integral to compare")
    rate = RateFunction(psi, d)
    gamma = alpha * (d + 1) / d
    t0 = rate.t_start
    for big_t in grid:
        if big_t <= t0:
            raise ValueError(f"truncation {big_t} not above t0 = {t0:.6g}")
        if big_t - t0 > PANEL_LIMIT:
            raise ValueError(
                f"truncation {big_t} lies {big_t - t0:.6g} unit panels above t0 = {t0:.6g}, "
                f"past the limit of {PANEL_LIMIT}"
            )
    r0, *r_grid = rate(np.array([t0, *grid])).tolist()
    # x = e^u: x^(alpha/d - 1) psi(x)^alpha dx = e^(u alpha/d + alpha log psi(e^u)) du
    i_psi = _exp_partials(
        lambda u: u * alpha / d + alpha * psi.log_eval(u),
        t0 - r0,
        [big_t - r_big for big_t, r_big in zip(grid, r_grid)],
    )
    i_r = _exp_partials(lambda t: -gamma * rate(t), t0, grid)
    ratios = i_psi / i_r
    psi_v = classify_khintchine_series(psi, d, alpha)
    rate_v = classify_rate_series(rate, gamma)
    q0_psi = _power_verdict(-psi.a * d, psi.b * d)
    q0_rate = classify_rate_series(rate, float(d + 1))
    return EquivalenceReport(
        gamma=gamma,
        truncations=tuple(grid),
        i_psi=i_psi,
        i_r=i_r,
        ratios=ratios,
        psi_verdict=psi_v,
        rate_verdict=rate_v,
        agree=psi_v == rate_v,
        q0_psi_verdict=q0_psi,
        q0_rate_verdict=q0_rate,
        q0_agree=q0_psi == q0_rate,
    )
