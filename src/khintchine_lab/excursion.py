"""Return times, excursions and tail statistics along trajectories.

Trajectories live on the space of lattices; the two sources are the random
walk h_{s_n} ... h_{s_1} of a similarity system and the diagonal flow
a_t u_x sampled at t_n = -n d log(kappa)/(d+1).  Heights are computed on a
continually re-reduced working basis so that arbitrarily long trajectories
never overflow the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special
import scipy.stats

from .flows import diag_time, similarity_to_group
from .ifs import IfsSystem
from .lattices import (
    LAGRANGE_ITERATION_LIMIT,
    SINGULAR_TOL,
    CompactWindow,
    ReductionGuardError,
    _enumerate_sup,
    lll_reduce,
)


class NoWindowDataError(RuntimeError):
    """A statistic over window visits was requested but none occurred."""


class InfeasibleBudgetError(ValueError):
    """The admissible range for delta is empty at the given m."""


@dataclass(frozen=True)
class ExcursionRecord:
    index: int
    start_step: int
    end_step: int
    length: int
    peak: float | None
    flavor: str

    def __post_init__(self):
        if self.flavor not in ("walk", "diagonal"):
            raise ValueError("flavor must be 'walk' or 'diagonal'")
        if self.length < 1 or self.start_step >= self.end_step:
            raise ValueError("excursion must advance by at least one step")


@dataclass(frozen=True)
class TailReport:
    thresholds: np.ndarray
    empirical_tail: np.ndarray
    fitted_rate: float
    fitted_rate_ci: tuple[float, float]
    theta_hat: float
    chebyshev_bound: np.ndarray
    rate: float
    delta: float
    m: int
    n_samples: int
    n_censored: int


@dataclass(frozen=True)
class RateBudget:
    kappa: float
    d: int
    varpi: float
    log_Cc: float
    eps: float
    rho: float
    eta: float
    m: int
    delta: float
    D: float
    gamma_max: float
    m_threshold: float
    coefficient: float
    meets_target: bool


# ---------------------------------------------------------------------------
# reduced-basis trajectory walkers


class _Walker2:
    """2x2 working basis in plain floats for diagonal rides; Lagrange-reduced
    after every step."""

    __slots__ = ("b00", "b01", "b10", "b11")

    def __init__(self, basis):
        self.b00, self.b01 = float(basis[0][0]), float(basis[0][1])
        self.b10, self.b11 = float(basis[1][0]), float(basis[1][1])
        self._reduce()

    def _reduce(self):
        b00, b01, b10, b11 = self.b00, self.b01, self.b10, self.b11
        for _ in range(LAGRANGE_ITERATION_LIMIT):
            n0 = b00 * b00 + b01 * b01
            n1 = b10 * b10 + b11 * b11
            if n0 > n1:
                b00, b01, b10, b11 = b10, b11, b00, b01
                n0 = n1
            if n0 < SINGULAR_TOL:
                raise ValueError("numerically singular basis")
            q = round((b10 * b00 + b11 * b01) / n0)
            if q == 0:
                break
            b10 -= q * b00
            b11 -= q * b01
        else:
            raise ReductionGuardError(
                f"Lagrange reduction stopped after {LAGRANGE_ITERATION_LIMIT} iterations"
            )
        self.b00, self.b01, self.b10, self.b11 = b00, b01, b10, b11

    def scale(self, factors):
        # B @ diag(factors) with the products that are exact zeros left out
        f0, f1 = factors.tolist()
        self.b00 *= f0
        self.b01 *= f1
        self.b10 *= f0
        self.b11 *= f1
        self._reduce()

    def height(self) -> float:
        b00, b01, b10, b11 = self.b00, self.b01, self.b10, self.b11
        best = -1.0
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
            v0 = abs(a * b00 + b * b10)
            v1 = abs(a * b01 + b * b11)
            sup = v0 if v0 >= v1 else v1
            if best < 0.0 or sup < best:
                best = sup
        return -math.log(best)


class _WalkerN:
    """General working basis, LLL-reduced after every step."""

    def __init__(self, basis):
        self.b, _ = lll_reduce(np.array(basis, dtype=float))

    def apply(self, s):
        self.b, _ = lll_reduce(self.b @ s)

    def scale(self, factors):
        # B @ diag(factors): every off-diagonal product is an exact zero, so
        # scaling the columns gives the same floats
        self.b, _ = lll_reduce(self.b * factors)

    def height(self) -> float:
        delta, _ = _enumerate_sup(self.b)
        return -math.log(delta)


def _step_inverses(sys: IfsSystem) -> list:
    """Per-symbol matrices h_s^{-1}, the right factors of the dual basis walk."""
    return [similarity_to_group(m).inverse().matrix for m in sys.maps]


def _lagrange_reduce(b: np.ndarray) -> np.ndarray:
    """Lagrange-reduce every walk of a [row, column, walk] basis array,
    overwriting it where no swap is needed.

    Each pass is the scalar 2x2 loop's float arithmetic applied elementwise
    (``np.rint`` rounds half to even like ``round``), so each walk gets the
    floats it would get alone: a converged walk is left as it is by further
    passes (no swap, q = 0 again), and the pass limit trips exactly when one
    walk needs more than ``LAGRANGE_ITERATION_LIMIT`` iterations.
    """
    for _ in range(LAGRANGE_ITERATION_LIMIT):
        sq = b * b
        n0, n1 = sq[:, 0] + sq[:, 1]
        swap = n0 > n1
        # count_nonzero is the cheapest any() on small arrays
        if np.count_nonzero(swap):
            b = np.where(swap, b[::-1], b)
            n0 = np.minimum(n0, n1)
        if np.count_nonzero(n0 < SINGULAR_TOL):
            raise ValueError("numerically singular basis")
        p = b[1] * b[0]
        q = np.rint((p[0] + p[1]) / n0)
        # round() raises on nan and inf; np.rint passes them through
        if np.count_nonzero(np.isfinite(q)) < q.size:
            raise ValueError("non-finite Lagrange coefficient")
        if not np.count_nonzero(q):
            return b
        b[1] -= q * b[0]
    raise ReductionGuardError(
        f"Lagrange reduction stopped after {LAGRANGE_ITERATION_LIMIT} iterations"
    )


def _lagrange_walks(bases: np.ndarray, steps: list, words: np.ndarray) -> np.ndarray:
    """Heights of d=1 walks advanced in lockstep, one walk per row of
    ``words``, each from its own 2x2 basis: the floats of ``_Walker2``
    (reduce the start, then step and reduce) for every walk.  Heights go
    through ``math.log``; ``np.log`` can differ in the last bit."""
    b = _lagrange_reduce(np.moveaxis(bases, 0, -1).copy())
    table = np.moveaxis(np.array(steps, dtype=float), 0, -1)
    heights = np.empty(words.shape)
    for i in range(words.shape[1]):
        s = table.take(words[:, i], axis=2)
        b = _lagrange_reduce(b[:, 0:1] * s[0] + b[:, 1:2] * s[1])
        # sup norms of the candidates (1,0), (0,1), (1,1), (1,-1)
        cand = np.abs(np.concatenate((b, b[0:1] + b[1:2], b[0:1] - b[1:2])))
        heights[:, i] = cand.max(axis=1).min(axis=0)
    # one walk at a time keeps the Python floats of math.log few
    for row in heights:
        row[:] = np.fromiter(map(math.log, row.tolist()), float, row.size)
    return np.negative(heights, out=heights)


def walk_heights(sys: IfsSystem, word: Sequence[int] | np.ndarray, start=None) -> np.ndarray:
    """Heights l(h_{b_1^n} u_start) for n = 1..len(word).

    ``word`` is one word, or a ``(walks, n)`` array with one word per row
    (then the result has the same shape); ``start`` is one point of R^d or
    one per row.  The working basis follows B <- B h_s^{-1} with
    re-reduction, so the answer is exact while entries stay bounded by the
    excursion scale.  At d = 1 all rows advance in lockstep.
    """
    words = np.asarray(word, dtype=int)
    rows = np.atleast_2d(words)
    d = sys.dimension
    bases = np.tile(np.eye(d + 1), (rows.shape[0], 1, 1))
    if start is not None:
        bases[:, 0, 1:] = np.asarray(start, dtype=float)
    steps = _step_inverses(sys)
    if d == 1:
        out = _lagrange_walks(bases, steps, rows)
    else:
        out = np.empty(rows.shape)
        for heights, basis, row in zip(out, bases, rows):
            walker = _WalkerN(basis)
            for i, s in enumerate(row):
                walker.apply(steps[s])
                heights[i] = walker.height()
    return out.reshape(words.shape)


def diagonal_heights(x, kappa: float, n_max: int, refine: int = 1) -> np.ndarray:
    """Heights l(a_t u_x) on the grid t_j = j*spacing, j = 0..n_max*refine,
    where spacing = -d log(kappa)/((d+1) refine)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    spacing = diag_time(kappa, d) / refine
    basis = np.eye(d + 1)
    basis[0, 1:] = x
    step = np.array([math.exp(-spacing)] + [math.exp(spacing / d)] * d)
    walker = _Walker2(basis) if d == 1 else _WalkerN(basis)
    out = np.empty(n_max * refine + 1)
    out[0] = walker.height()
    for j in range(1, out.size):
        walker.scale(step)
        out[j] = walker.height()
    return out


# ---------------------------------------------------------------------------
# returns and excursions


def return_times(heights, window: CompactWindow, max_steps: int | None = None) -> np.ndarray:
    """1-indexed steps n <= max_steps whose height lies in the window."""
    h = np.asarray(heights, dtype=float)
    if max_steps is not None:
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        h = h[:max_steps]
    return np.flatnonzero(h <= window.level) + 1


def excursions(returns, flavor: str = "walk", peaks=None) -> list[ExcursionRecord]:
    """Records (sigma^0 = tau^1, then the gaps between consecutive returns)."""
    rets = np.asarray(returns, dtype=int)
    if rets.size and (rets[0] < 1 or np.any(np.diff(rets) <= 0)):
        raise ValueError("returns must be strictly increasing and >= 1")
    out = []
    prev = 0
    for n, r in enumerate(rets):
        peak = None if peaks is None else float(peaks[n])
        out.append(
            ExcursionRecord(
                index=n,
                start_step=int(prev),
                end_step=int(r),
                length=int(r - prev),
                peak=peak,
                flavor=flavor,
            )
        )
        prev = r
    return out


def lipschitz_slack(kappa: float, d: int, grid_refine: int) -> float:
    """Certified gap between the grid max and the continuous max of l.

    |dl/dt| <= max(1, 1/d): the sup norm of any fixed vector moves at rate
    -1 on the first coordinate and 1/d on the rest.
    """
    spacing = diag_time(kappa, d) / grid_refine
    return 0.5 * spacing * max(1.0, 1.0 / d)


def diagonal_excursions(
    x, kappa: float, window: CompactWindow, n_max: int, grid_refine: int = 4
) -> list[ExcursionRecord]:
    """Excursion records of a_t u_x sampled at t_n, with peaks read off a
    refined grid and corrected upward by the Lipschitz slack."""
    if grid_refine < 1:
        raise ValueError("grid_refine must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    grid = diagonal_heights(x, kappa, n_max, refine=grid_refine)
    sampled = grid[grid_refine::grid_refine]
    rets = return_times(sampled, window)
    slack = lipschitz_slack(kappa, d, grid_refine)
    peaks = []
    prev = 0
    for r in rets:
        lo = prev * grid_refine
        hi = r * grid_refine
        peaks.append(float(grid[lo : hi + 1].max()) + slack)
        prev = r
    return excursions(rets, flavor="diagonal", peaks=peaks)


def growth_bound_check(
    records: Sequence[ExcursionRecord],
    window: CompactWindow,
    kappa: float,
    d: int,
    peak_slack: float = 0.0,
) -> list[ExcursionRecord]:
    """Records whose peak exceeds -sigma d log(kappa)/(d+1)^2 + Q + slack."""
    rate = -d * math.log(kappa) / (d + 1) ** 2
    out = []
    for rec in records:
        if rec.peak is None:
            continue
        bound = rate * rec.length + window.q_const + peak_slack + 1e-6
        if rec.peak > bound:
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# tail statistics


def rate_budget(
    kappa: float, d: int, varpi: float, log_Cc: float, eps: float, m: int
) -> RateBudget:
    """The delta/m bookkeeping: delta sits eta below the top of its range,
    and for m past the threshold the achieved coefficient is within eps of
    the optimal rate gamma_max = varpi (d+1)/d."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if m < 1 or varpi <= 0.0 or log_Cc < 0.0 or not (0.0 < kappa < 1.0):
        raise ValueError("need m >= 1, varpi > 0, log_Cc >= 0, kappa in (0, 1)")
    log_kappa = math.log(kappa)
    rho = 1.0 - eps / 2.0
    delta_top = -m * rho * varpi * log_kappa / (d + 1) - log_Cc
    if delta_top <= 0.0:
        raise InfeasibleBudgetError(
            f"empty delta range at m={m}: top of range is {delta_top:.6g}"
        )
    eta = min(1.0, delta_top / 2.0)
    delta = delta_top - eta
    big_d = (d + 1) ** 2 * (log_Cc + 1.0) / (-d * log_kappa)
    gamma_max = varpi * (d + 1) / d
    m_threshold = big_d * d / ((eps / 2.0) * varpi * (d + 1))
    coefficient = delta * (d + 1) ** 2 / (-m * d * log_kappa)
    meets = coefficient >= (1.0 - eps) * gamma_max - 1e-12
    if m >= m_threshold and not meets:
        raise RuntimeError("budget arithmetic violated its own bound")
    return RateBudget(
        kappa=kappa,
        d=d,
        varpi=varpi,
        log_Cc=log_Cc,
        eps=eps,
        rho=rho,
        eta=eta,
        m=m,
        delta=delta,
        D=big_d,
        gamma_max=gamma_max,
        m_threshold=m_threshold,
        coefficient=coefficient,
        meets_target=meets,
    )


def tail_report(
    sys: IfsSystem,
    window: CompactWindow,
    walks: int,
    steps: int,
    seed: int,
    m: int = 1,
    delta: float | None = None,
    varpi: float | None = None,
    burn_in: int = 64,
) -> TailReport:
    """Pooled excursion-length tail against its own Chebyshev bound.

    Each walk is burnt in until it first visits the window; that visit is the
    start point, and the sigma samples are the gaps between consecutive
    window visits over the next ``steps`` steps.  theta_hat is the max over
    walks of the within-walk mean of e^{(delta/m) sigma}; by Markov plus
    convexity the pooled tail is dominated by e^{-(delta/m)s} theta_hat.
    """
    if walks < 1 or steps < 1 or m < 1:
        raise ValueError("walks, steps, m must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if delta is None:
        budget = rate_budget(
            sys.kappa, sys.dimension, varpi if varpi is not None else sys.default_varpi(),
            log_Cc=0.0, eps=0.5, m=m,
        )
        delta = budget.delta
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rate = delta / m
    rng = np.random.default_rng(seed)
    total = burn_in + steps
    words = np.empty((walks, total), dtype=np.intp)
    for word in words:
        word[:] = rng.choice(sys.alphabet_size, size=total, p=sys.weights)
    sigmas: list[np.ndarray] = []
    group_log_means: list[float] = []
    n_censored = 0
    for heights in walk_heights(sys, words):
        visits = np.flatnonzero(heights <= window.level)
        anchors = visits[visits >= burn_in]
        if anchors.size == 0:
            n_censored += 1
            continue
        i0 = int(anchors[0])
        end = min(i0 + steps, total)
        rets = anchors[(anchors > i0) & (anchors <= end)]
        if rets.size == 0:
            n_censored += 1
            continue
        gaps = np.diff(np.concatenate(([i0], rets)))
        if rets[-1] < end:
            n_censored += 1
        sigmas.append(gaps)
        group_log_means.append(
            float(scipy.special.logsumexp(rate * gaps) - math.log(gaps.size))
        )
    if not sigmas:
        raise NoWindowDataError("no walk produced two window visits")
    pooled = np.concatenate(sigmas)
    theta_log = max(group_log_means)
    theta_hat = float(np.exp(theta_log))
    smax = int(pooled.max())
    thresholds = np.arange(1, smax + 1)
    counts = np.bincount(pooled, minlength=smax + 1)
    # tail(s) = fraction of samples >= s
    tail = counts[::-1].cumsum()[::-1][1:] / pooled.size
    bound = np.exp(theta_log - rate * thresholds)
    pos = tail > 0
    n_pos = int(pos.sum())
    if n_pos >= 3:
        fit = scipy.stats.linregress(thresholds[pos], np.log(tail[pos]))
        fitted = -float(fit.slope)
        tcrit = float(scipy.stats.t.ppf(0.975, n_pos - 2))
        ci = (fitted - tcrit * float(fit.stderr), fitted + tcrit * float(fit.stderr))
    else:
        fitted = math.nan
        ci = (math.nan, math.nan)
    return TailReport(
        thresholds=thresholds,
        empirical_tail=tail,
        fitted_rate=fitted,
        fitted_rate_ci=ci,
        theta_hat=theta_hat,
        chebyshev_bound=bound,
        rate=rate,
        delta=float(delta),
        m=m,
        n_samples=int(pooled.size),
        n_censored=n_censored,
    )

