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
from itertools import islice
from typing import Sequence

import numpy as np

from .flows import diag_time, similarity_to_group
from .ifs import IfsSystem, _symbols, sample_words
from .lattices import CompactWindow, _flow_walk, _product, _reduced_sups, _times, _walk

# tail_report draws and walks this many walks at a time, which bounds the
# words and Deltas it holds at once (per walk step a symbol, one byte for up
# to 256 maps, a float64 Delta and one-byte window flags)
WALK_GROUP = 1024


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

    def __post_init__(self):
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
# trajectories on a re-reduced working basis


def _step_inverses(sys: IfsSystem) -> list:
    """Per-symbol matrices h_s^{-1}, the right factors of the dual basis walk."""
    return [similarity_to_group(m).inverse().matrix for m in sys.maps]


def _lagrange_walks(bases: np.ndarray, steps: list, words: np.ndarray) -> np.ndarray:
    """Delta after each step of d=1 walks advanced in lockstep, one walk per
    row of ``words``, each from its own 2x2 basis: the floats of ``_walk``
    (reduce the start, then step and reduce) for every walk."""
    b, _ = _reduced_sups(np.moveaxis(bases, 0, -1).copy())
    table = np.moveaxis(np.array(steps, dtype=float), 0, -1)
    deltas = np.empty(words.shape)
    for i in range(words.shape[1]):
        s = table.take(words[:, i], axis=2)
        b, deltas[:, i] = _reduced_sups(_times(b, s))
    return deltas


def _walk_deltas(sys: IfsSystem, rows: np.ndarray, start=None) -> np.ndarray:
    """Delta, the sup norm of the shortest vector, after each step of the
    walks h_{b_1^n} u_start, one walk per row of the checked symbol array
    ``rows``; ``start`` is one point of R^d or one per row.  At d = 1 the
    rows advance in lockstep, above it one at a time."""
    d = sys.dimension
    bases = np.tile(np.eye(d + 1), (rows.shape[0], 1, 1))
    if start is not None:
        bases[:, 0, 1:] = np.asarray(start, dtype=float)
    steps = _step_inverses(sys)
    if d == 1:
        return _lagrange_walks(bases, steps, rows)
    columns = [m.T.tolist() for m in steps]
    out = np.empty(rows.shape)
    for deltas, basis, row in zip(out, bases, rows):
        walk = _walk(basis, [columns[s] for s in row.tolist()], _product)
        deltas[:] = [delta for _, _, delta, _ in islice(walk, 1, None)]
    return out


def walk_heights(sys: IfsSystem, word: Sequence[int] | np.ndarray, start=None) -> np.ndarray:
    """Heights l(h_{b_1^n} u_start) for n = 1..len(word).

    ``word`` is one word, or a ``(walks, n)`` array with one word per row
    (then the result has the same shape); ``start`` is one point of R^d or
    one per row.  The working basis follows B <- B h_s^{-1} with
    re-reduction, so the answer is exact while entries stay bounded by the
    excursion scale.  At d = 1 all rows advance in lockstep.  The symbols
    may have any integer dtype and are indexed as they are, without a copy; a
    float or out-of-range symbol raises ``ValueError``.
    """
    words = _symbols(sys.alphabet_size, word)
    heights = _walk_deltas(sys, np.atleast_2d(words), start)
    # -log Delta one walk at a time, which keeps the Python floats of math.log
    # few; np.log can differ from it in the last bit
    for row in heights:
        row[:] = np.fromiter(map(math.log, row.tolist()), float, row.size)
    return np.negative(heights, out=heights).reshape(words.shape)


def _window_visits(deltas: np.ndarray, level: float) -> np.ndarray:
    """Where ``-math.log(delta) <= level``, the window test on the heights of
    ``walk_heights``, decided on Delta: only the steps in a narrow band
    around c = e^-level take the log.

    Delta >= c (1 + 2^-40) is a visit and Delta <= c (1 - 2^-40) is not.  In
    log space the band reaches 2^-40 to each side of -level, while the
    roundings of c and of the band's ends move it by about 2^-52 and
    ``math.log`` errs by an ulp of |log Delta| <= 745, at most 2^-43.  Where
    c would not be a normal float, every step takes the log.
    """
    # e^-708 and e^708 lie inside the normal floats, [2^-1022, 2^1024)
    if abs(level) < 708.0:
        c = math.exp(-level)
        lo, hi = c * (1.0 - 2.0**-40), c * (1.0 + 2.0**-40)
    else:
        lo, hi = -math.inf, math.inf
    visits = deltas >= hi
    near = (deltas > lo) & ~visits
    visits[near] = [-math.log(delta) <= level for delta in deltas[near].tolist()]
    return visits


def diagonal_heights(x, kappa: float, n_max: int, refine: int = 1) -> np.ndarray:
    """Heights l(a_t u_x) on the grid t_j = j*spacing, j = 0..n_max*refine,
    where spacing = -d log(kappa)/((d+1) refine)."""
    walk = _flow_walk(x, 0.0, diag_time(kappa, np.size(x)) / refine, n_max * refine)
    return np.array([-math.log(delta) for _, _, delta, _ in walk])


# ---------------------------------------------------------------------------
# returns and excursions


def return_times(heights, window: CompactWindow) -> np.ndarray:
    """1-indexed steps n whose height lies in the window."""
    h = np.asarray(heights, dtype=float)
    return np.flatnonzero(h <= window.level) + 1


def excursions(returns, peaks=None) -> list[ExcursionRecord]:
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
    return excursions(rets, peaks=peaks)


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
            # skipping it would report no violation with nothing checked
            raise ValueError(f"excursion record {rec.index} has no peak to check")
        bound = rate * rec.length + window.level + peak_slack + 1e-6
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
    # chained comparisons are False for nan, so nan and inf are rejected too
    finite = 0.0 < varpi < math.inf and 0.0 <= log_Cc < math.inf
    if m < 1 or not finite or not (0.0 < kappa < 1.0):
        raise ValueError(
            "need m >= 1, finite varpi > 0, finite log_Cc >= 0, kappa in (0, 1)"
        )
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


def _logsumexp(a: np.ndarray) -> float:
    """log sum e^a over a nonempty 1-d array of finite floats.

    The route of scipy.special.logsumexp (1.17), float for float: the
    maximum a_max and its m ties leave the sum, s sums e^(a - a_max) over the
    rest, and the result is log1p(s/m) + log(m) + a_max.
    """
    a_max = a.max()
    top = a == a_max
    m = np.sum(top, dtype=float)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    return float(np.log1p(s / m) + np.log(m) + a_max)


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error, for at least 3
    points with distinct x.

    The formulas of scipy.stats.linregress, with the centred second moments
    taken as elementwise sums rather than through np.cov, whose ``dot`` is a
    BLAS product.
    """
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = float(np.sum(dx * dx))
    sxy = float(np.sum(dx * dy))
    syy = float(np.sum(dy * dy))
    # a flat y has no correlation with x, and so no standard error
    r = min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy))) if syy > 0.0 else math.nan
    return sxy / sxx, math.sqrt((1.0 - r * r) * syy / sxx / (x.size - 2))


def _t_quantile(p: float, df: int) -> float:
    """The p-quantile of Student's t with df degrees of freedom, 1/2 < p < 1.

    The t solving I_{t^2/(df+t^2)}(1/2, df/2) = 2p - 1, the regularized
    incomplete beta function, by mpmath's secant ``findroot`` at 30 digits
    from the normal quantile, rounded once to a float.  mpmath is imported
    here, its one use on the command line's paths, so no other command
    loads it.
    """
    import mpmath

    with mpmath.workdps(30):
        target = 2 * mpmath.mpf(p) - 1
        half_df = mpmath.mpf(df) / 2
        z = mpmath.sqrt(2) * mpmath.erfinv(target)

        def excess(t):
            return mpmath.betainc(0.5, half_df, 0, t * t / (df + t * t), regularized=True) - target

        return float(mpmath.findroot(excess, (z, z * 1.01)))


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
    """Pooled excursion-length tail against a Markov bound on the sample.

    Each walk is burnt in until it first visits the window; that visit is the
    start point, and the sigma samples are the gaps between consecutive
    window visits from there to the walk's last step.  A walk is censored
    when it has no such gap, or when its last gap is still open: it left the
    window after its last visit, before its last step.  A visit is a step
    whose height ``walk_heights`` would put in the window, decided on Delta
    by ``_window_visits``.  theta_hat is the max over walks of the within-walk
    mean of e^{(delta/m) sigma}; by Markov's inequality the pooled tail lies
    under e^{-(delta/m)s} theta_hat for any sample, so the bound checks the
    arithmetic, not the walk.
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
    # a nan or inf delta would be compared with a nan bound and pass
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    rate = delta / m
    rng = np.random.default_rng(seed)
    total = burn_in + steps
    sigmas: list[np.ndarray] = []
    group_log_means: list[float] = []
    n_censored = 0
    for first in range(0, walks, WALK_GROUP):
        # row by row, the rng order of one walk at a time
        words = sample_words(sys, total, min(WALK_GROUP, walks - first), rng)
        in_window = _window_visits(_walk_deltas(sys, words), window.level)
        for row in in_window:
            visits = np.flatnonzero(row)
            anchors = visits[visits >= burn_in]
            if anchors.size < 2:
                # no visit, or no return to the window
                n_censored += 1
                continue
            gaps = np.diff(anchors)
            if anchors[-1] < total - 1:
                # the walk leaves the window after its last visit
                n_censored += 1
            sigmas.append(gaps)
            group_log_means.append(
                _logsumexp(rate * gaps) - math.log(gaps.size)
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
        slope, stderr = _slope_fit(thresholds[pos], np.log(tail[pos]))
        fitted = -slope
        tcrit = _t_quantile(0.975, n_pos - 2)
        ci = (fitted - tcrit * stderr, fitted + tcrit * stderr)
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

