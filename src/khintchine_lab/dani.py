"""The psi <-> r correspondence and series/integral convergence bookkeeping.

A non-increasing approximation speed psi on [x0, inf) trades places with a
rate function r on [t0, inf) through the balance psi(e^{t-r}) = e^{-t/d-r};
t0 = d/(d+1) log x0 - 1/(d+1) log psi(x0).  For d >= 2 the balance at t0 can
land slightly below x0, so psi is extended by its value at x0 there; x(t0) =
e^{t0 - r(t0)} is the exact lower edge of the correspondence.

For the power-log family psi(x) = c x^{-a} (log(e+x))^{-b} and b = 0 the
rate is affine, r(t) = (a - 1/d) t/(1+a) - log(c)/(1+a); for b > 0 it picks
up a +(b/(1+a)) log t correction.  These two coefficients are what the
convergence classifications run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

R_INTERVAL_TOL = 1e-13
RESIDUAL_TOL = 1e-12
BORDERLINE_TOL = 1e-12
_MAX_DOUBLINGS = 200


class InvalidPsiError(ValueError):
    """Bisection could not bracket a root; psi is not usably monotone."""


@dataclass(frozen=True)
class ApproxFunction:
    """Non-increasing positive psi, either power-log or tabulated.

    Below domain_start the function is frozen at psi(domain_start); above the
    last tabulated node it is frozen at the last value.
    """

    family: str
    domain_start: float
    c: float = 1.0
    a: float = 0.0
    b: float = 0.0
    xs: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.domain_start <= 0.0:
            raise ValueError("domain_start must be positive")
        if self.family == "power_log":
            if self.c <= 0.0 or self.a < 0.0 or self.b < 0.0:
                raise ValueError("power_log needs c > 0, a >= 0, b >= 0")
        elif self.family == "tabulated":
            xs, vals = self.xs, self.values
            if xs is None or vals is None or xs.size != vals.size or xs.size < 2:
                raise ValueError("tabulated needs matching xs/values, length >= 2")
            if np.any(np.diff(xs) <= 0.0):
                raise ValueError("tabulated xs must be strictly increasing")
            if np.any(vals <= 0.0) or np.any(np.diff(vals) > 0.0):
                raise ValueError("tabulated values must be positive and non-increasing")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def power_log(cls, c: float, a: float, b: float = 0.0, x0: float = 1.0) -> "ApproxFunction":
        return cls(family="power_log", domain_start=float(x0), c=float(c), a=float(a), b=float(b))

    @classmethod
    def tabulated(cls, xs, values) -> "ApproxFunction":
        xs = np.array(xs, dtype=float)
        values = np.array(values, dtype=float)
        xs.flags.writeable = False
        values.flags.writeable = False
        return cls(family="tabulated", domain_start=float(xs[0]), xs=xs, values=values)

    def log_eval(self, u):
        """log psi at x = e^u, vectorized, stable for large |u|."""
        u = np.asarray(u, dtype=float)
        u_eff = np.maximum(u, math.log(self.domain_start))
        if self.family == "power_log":
            # log(e + x) = logaddexp(1, u) without forming e^u
            out = math.log(self.c) - self.a * u_eff - self.b * np.log(np.logaddexp(1.0, u_eff))
        else:
            x = np.exp(np.minimum(u_eff, math.log(self.xs[-1])))
            out = np.log(np.interp(x, self.xs, self.values))
        return out if out.ndim else float(out)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.exp(self.log_eval(np.log(np.maximum(x, 0.0))))
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        if self.family == "power_log":
            return {
                "family": "power_log",
                "c": self.c,
                "a": self.a,
                "b": self.b,
                "x0": self.domain_start,
            }
        return {
            "family": "tabulated",
            "xs": self.xs.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ApproxFunction":
        if doc.get("family") == "power_log":
            return cls.power_log(doc["c"], doc["a"], doc.get("b", 0.0), doc.get("x0", 1.0))
        if doc.get("family") == "tabulated":
            return cls.tabulated(doc["xs"], doc["values"])
        raise ValueError(f"unknown psi family {doc.get('family')!r}")


def t0_of(psi: ApproxFunction, d: int) -> float:
    # boundary balance: t - r = log x0 and psi(x0) = e^{-t/d - r}
    x0 = psi.domain_start
    return d / (d + 1) * (math.log(x0) - float(psi.log_eval(math.log(x0))))


def _r_scalar(psi: ApproxFunction, d: int, t: float) -> float:
    # G(r) = log psi(e^{t-r}) + t/d + r is strictly increasing in r
    def g(r):
        return float(psi.log_eval(t - r)) + t / d + r

    lo, hi = -1.0, 1.0
    w = 2.0
    n = 0
    while g(lo) > 0.0:
        lo -= w
        w *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise InvalidPsiError("no lower bracket for r")
    w = 2.0
    n = 0
    while g(hi) < 0.0:
        hi += w
        w *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise InvalidPsiError("no upper bracket for r")
    while hi - lo > R_INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    residual = math.exp(float(psi.log_eval(t - r))) - math.exp(-t / d - r)
    if abs(residual) > RESIDUAL_TOL:
        raise InvalidPsiError(f"balance residual {residual:.3g} at t={t:.6g}")
    return r


def r_from_psi(psi: ApproxFunction, d: int, t):
    """The unique r with psi(e^{t-r}) = e^{-t/d-r}, by bisection.

    For power_log with b = 0 this equals (a - 1/d) t/(1+a) - log(c)/(1+a).
    """
    t_arr = np.asarray(t, dtype=float)
    t_min = t0_of(psi, d) - 1e-9
    if np.any(t_arr < t_min):
        raise ValueError(f"t below domain start {t_min + 1e-9:.6g}")
    if t_arr.ndim == 0:
        return _r_scalar(psi, d, float(t_arr))
    return np.array([_r_scalar(psi, d, ti) for ti in t_arr.ravel()]).reshape(t_arr.shape)


@dataclass(frozen=True)
class RateFunction:
    """r on [t_start, inf); slope/log_coeff carry the growth metadata
    r(t) = slope*t + log_coeff*log t + O(1) when known (None otherwise)."""

    t_start: float
    d: int
    evaluator: Callable
    slope: float | None = None
    log_coeff: float = 0.0

    def __call__(self, t):
        out = np.asarray(self.evaluator(np.asarray(t, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    @classmethod
    def from_psi(cls, psi: ApproxFunction, d: int) -> "RateFunction":
        slope = None
        log_coeff = 0.0
        if psi.family == "power_log":
            slope = (psi.a - 1.0 / d) / (1.0 + psi.a)
            log_coeff = psi.b / (1.0 + psi.a)
        return cls(
            t_start=t0_of(psi, d),
            d=d,
            evaluator=lambda t: r_from_psi(psi, d, t),
            slope=slope,
            log_coeff=log_coeff,
        )

    @classmethod
    def tabulated(cls, ts, rs, d: int) -> "RateFunction":
        ts = np.array(ts, dtype=float)
        rs = np.array(rs, dtype=float)
        if ts.size != rs.size or ts.size < 2 or np.any(np.diff(ts) <= 0.0):
            raise ValueError("need matching strictly increasing ts")
        return cls(t_start=float(ts[0]), d=d, evaluator=lambda t: np.interp(t, ts, rs))

    def check_monotonicity(self, span: float = 30.0, n: int = 1000) -> bool:
        """t - r strictly increasing, t/d + r non-decreasing (to 1e-9), on a grid."""
        ts = np.linspace(self.t_start, self.t_start + span, n)
        rs = self(ts)
        if np.any(np.diff(ts - rs) <= 0.0):
            raise ValueError("t - r(t) is not strictly increasing")
        if np.any(np.diff(ts / self.d + rs) < -1e-9):
            raise ValueError("t/d + r(t) decreases")
        return True


def psi_from_r(rate: RateFunction, d: int, x: float) -> float:
    """psi(x) = e^{-t/d - r(t)} at the unique t with e^{t - r(t)} = x."""
    log_x = math.log(x)
    t0 = rate.t_start

    def g(t):
        return t - float(rate(t)) - log_x

    if g(t0) > 1e-9:
        raise ValueError(f"x={x:.6g} below the domain edge e^(t0 - r(t0))")
    lo, hi = t0, t0 + 1.0
    w = 2.0
    n = 0
    while g(hi) < 0.0:
        hi += w
        w *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise InvalidPsiError("no upper bracket for t")
    while hi - lo > R_INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return math.exp(-t / d - float(rate(t)))


# ---------------------------------------------------------------------------
# convergence classification


@dataclass(frozen=True)
class SeriesVerdict:
    decision: str  # converges | diverges | numeric
    exact: bool
    converging_partial_sums: bool | None = None
    note: str = ""

    def converges(self) -> bool:
        if self.decision == "numeric":
            return bool(self.converging_partial_sums)
        return self.decision == "converges"


def _power_verdict(power: float, log_power: float, note: str) -> SeriesVerdict:
    """Verdict for sum/integral of x^power (log x)^(-log_power) dx."""
    scale = max(1.0, abs(power))
    if abs(power + 1.0) <= BORDERLINE_TOL * scale:
        decision = "converges" if log_power > 1.0 else "diverges"
    else:
        decision = "converges" if power < -1.0 else "diverges"
    return SeriesVerdict(decision=decision, exact=True, note=note)


def classify_khintchine_series(psi: ApproxFunction, d: int, alpha: float) -> SeriesVerdict:
    """Convergence of sum x^(alpha/d - 1) psi(x)^alpha."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if psi.family == "power_log":
        power = alpha / d - 1.0 - psi.a * alpha
        return _power_verdict(power, psi.b * alpha, note=f"exponent {power:.6g}")
    ks = np.arange(0, max(2, int(math.log2(psi.xs[-1]))))
    x = np.maximum(2.0**ks, psi.domain_start)
    terms = x * x ** (alpha / d - 1.0) * np.asarray(psi(x)) ** alpha
    ratios = terms[1:] / terms[:-1]
    converging = bool(ratios.size >= 3 and np.all(ratios[-3:] <= 0.97))
    return SeriesVerdict(
        decision="numeric",
        exact=False,
        converging_partial_sums=converging,
        note="condensation heuristic on tabulated data",
    )


def classify_rate_series(rate: RateFunction, gamma: float) -> SeriesVerdict:
    """Convergence of sum_t exp(-gamma r(t))."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if rate.slope is not None:
        s = rate.slope
        if abs(s) <= BORDERLINE_TOL:
            decision = "converges" if gamma * rate.log_coeff > 1.0 else "diverges"
        else:
            decision = "converges" if s > 0.0 else "diverges"
        return SeriesVerdict(decision=decision, exact=True, note=f"slope {s:.6g}")
    t_lo = math.ceil(rate.t_start)
    blocks = []
    for k in range(12):
        ts = np.arange(t_lo + 2**k - 1, t_lo + 2 ** (k + 1) - 1, dtype=float)
        blocks.append(float(np.sum(np.exp(-gamma * rate(ts)))))
    ratios = np.array(blocks[1:]) / np.maximum(np.array(blocks[:-1]), 1e-300)
    converging = bool(np.all(ratios[-3:] <= 0.97))
    return SeriesVerdict(
        decision="numeric",
        exact=False,
        converging_partial_sums=converging,
        note="dyadic block sums",
    )


@dataclass(frozen=True)
class EquivalenceReport:
    alpha: float
    d: int
    gamma: float
    truncations: tuple
    i_psi: np.ndarray
    i_r: np.ndarray
    ratios: np.ndarray
    psi_verdict: SeriesVerdict
    rate_verdict: SeriesVerdict
    agree: bool
    q0_psi_verdict: SeriesVerdict
    q0_rate_verdict: SeriesVerdict
    q0_agree: bool


def equivalence_check(
    psi: ApproxFunction, d: int, alpha: float, grid: Sequence[float] = (10.0, 20.0, 40.0, 60.0)
) -> EquivalenceReport:
    """Partial integrals of x^(alpha/d-1) psi^alpha dx and e^(-gamma r) dt on
    matched truncations x(T) = e^(T - r(T)), gamma = alpha (d+1)/d.

    Under the substitution x = e^(t - r(t)) the first integrand becomes
    (1 - r'(t)) e^(-gamma r(t)), so for affine r the ratio of the partials is
    the constant 1 - slope.  The q = 0 variant compares the integral of
    psi(x)^d dx (the d-th power makes the same substitution exact) against
    the integral of e^(-(d+1) r) dt.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rate = RateFunction.from_psi(psi, d)
    gamma = alpha * (d + 1) / d
    t0 = rate.t_start
    r0 = float(rate(t0))
    u0 = t0 - r0
    i_psi = np.empty(len(grid))
    i_r = np.empty(len(grid))
    for i, big_t in enumerate(grid):
        if big_t <= t0:
            raise ValueError(f"truncation {big_t} not above t0 = {t0:.6g}")
        i_r[i], _ = scipy.integrate.quad(
            lambda t: math.exp(-gamma * float(rate(t))), t0, big_t, limit=200
        )
        u_hi = big_t - float(rate(big_t))
        i_psi[i], _ = scipy.integrate.quad(
            lambda u: math.exp(u * alpha / d + alpha * float(psi.log_eval(u))),
            u0,
            u_hi,
            limit=200,
        )
    ratios = i_psi / i_r
    psi_v = classify_khintchine_series(psi, d, alpha)
    rate_v = classify_rate_series(rate, gamma)
    if psi.family == "power_log":
        q0_psi = _power_verdict(-psi.a * d, psi.b * d, note=f"exponent {-psi.a * d:.6g}")
    else:
        q0_psi = classify_khintchine_series(psi, d, float(d))  # alpha=d gives psi^d x^0
    q0_rate = classify_rate_series(rate, float(d + 1))
    return EquivalenceReport(
        alpha=alpha,
        d=d,
        gamma=gamma,
        truncations=tuple(grid),
        i_psi=i_psi,
        i_r=i_r,
        ratios=ratios,
        psi_verdict=psi_v,
        rate_verdict=rate_v,
        agree=psi_v.converges() == rate_v.converges(),
        q0_psi_verdict=q0_psi,
        q0_rate_verdict=q0_rate,
        q0_agree=q0_psi.converges() == q0_rate.converges(),
    )
