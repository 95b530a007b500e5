"""Covering certificates and the contraction exponents of Cantor powers.

cover_hyperplane builds, in exact rational arithmetic, a list of admissible
triadic cubes of side 3^{-n} covering the slab |a.x - rhs| < 3^{-n} ||a||_1,
a superset of the Euclidean 3^{-n}-neighborhood of the hyperplane a.x = rhs
(||a||_2 <= ||a||_1).  The recursion slices the smallest-|coefficient|
coordinate over the 2^n positive-mass triadic slices and recurses one
dimension down at one level coarser; since the sliced coefficient never
exceeds the l1 weight of the remaining ones, each slice lands inside the
coarser slab, which is what keeps the construction sound and the count at
C_d 2^{(d-1)n} with C_1 = 3, C_d = 2 C_{d-1}.

alpha_estimate is the empirical side: the best neighborhood mass over a
searched family of affine subspaces, reported as log-mass ratios with
binomial confidence widths, never as a point estimate presented as truth.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ifs import IfsSystem, sample_fractal

ORTHONORMAL_TOL = 1e-12
_MASS_CHUNK = 1 << 15
_Z_95 = 1.959963984540054


class ResourceLimitError(RuntimeError):
    """The requested certificate exceeds the cube budget."""


def bound_constant(d: int) -> int:
    """C_d of the covering recursion: C_1 = 3, C_d = 2 C_{d-1}."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 3 * 2 ** (d - 1)


@dataclass(frozen=True)
class SubspaceQuery:
    """Affine subspace {x : normal_rows @ x = offset} with its neighborhood
    radius; codimension = number of rows."""

    normal_rows: np.ndarray
    offset: np.ndarray
    epsilon: float

    def __post_init__(self):
        rows = np.asarray(self.normal_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[0] > rows.shape[1]:
            raise ValueError("normal_rows must be a (codim, d) matrix, codim <= d")
        gram = rows @ rows.T
        if np.max(np.abs(gram - np.eye(rows.shape[0]))) > ORTHONORMAL_TOL:
            raise ValueError("normal_rows must have orthonormal rows")
        if np.asarray(self.offset, dtype=float).shape != (rows.shape[0],):
            raise ValueError("offset must have one entry per normal row")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class CoverCertificate:
    """Admissible depth-n cubes; cells holds per-cube triadic indices
    (k_1..k_d), cube i being the product of [k_j 3^-n, (k_j+1) 3^-n]."""

    n: int
    dimension: int
    cells: np.ndarray  # int64 (count, dimension)
    bound_constant: int

    @property
    def count(self) -> int:
        return self.cells.shape[0]


@lru_cache(maxsize=32)
def _admissible(lam: int) -> tuple:
    """Triadic indices at depth lam whose base-3 digits are all 0 or 2."""
    out = []
    for bits in range(2**lam):
        k = 0
        for i in range(lam):
            if (bits >> i) & 1:
                k += 2 * 3**i
        out.append(k)
    return tuple(sorted(out))


@lru_cache(maxsize=8)
def _digit_combos(m: int) -> np.ndarray:
    combos = np.array(list(itertools.product((0, 2), repeat=m)), dtype=np.int64)
    combos.flags.writeable = False
    return combos


def _expand_level(cells: np.ndarray, m: int) -> np.ndarray:
    # depth lam-1 cells -> their admissible depth-lam children
    combos = _digit_combos(m)
    out = (3 * cells)[:, None, :] + combos[None, :, :]
    return out.reshape(-1, m)


def _as_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return Fraction(float(value))


def _cover_rec(a: tuple, m: int, lam: int, rho: Fraction, memo: dict) -> np.ndarray:
    key = (m, lam, rho)
    hit = memo.get(key)
    if hit is not None:
        return hit
    eps = Fraction(1, 3**lam)
    weight = sum(abs(c) for c in a[:m])
    if m == 1:
        a1 = a[0]
        center = rho / a1
        lo, hi = center - eps, center + eps
        admissible = _admissible(lam)
        start = bisect_left(admissible, math.floor(lo / eps) - 1)
        stop = bisect_right(admissible, math.floor(hi / eps) + 1)
        ks = [k for k in admissible[start:stop] if k * eps < hi and (k + 1) * eps > lo]
        arr = np.array(ks, dtype=np.int64).reshape(-1, 1)
    elif lam == 0:
        lo = sum(min(c, 0) for c in a[:m])
        hi = sum(max(c, 0) for c in a[:m])
        if lo < rho + weight and hi > rho - weight:
            arr = np.zeros((1, m), dtype=np.int64)
        else:
            arr = np.empty((0, m), dtype=np.int64)
    else:
        a_m = a[m - 1]
        lo1 = sum(min(c, 0) for c in a[: m - 1])
        hi1 = sum(max(c, 0) for c in a[: m - 1])
        slab_lo, slab_hi = rho - eps * weight, rho + eps * weight
        parts = []
        for k in _admissible(lam):
            t = k * eps
            end_a, end_b = a_m * t, a_m * (t + eps)
            if end_a > end_b:
                end_a, end_b = end_b, end_a
            if lo1 + end_a >= slab_hi or hi1 + end_b <= slab_lo:
                continue
            child = _cover_rec(a, m - 1, lam - 1, rho - a_m * t, memo)
            if child.shape[0]:
                expanded = _expand_level(child, m - 1)
                col = np.full((expanded.shape[0], 1), k, dtype=np.int64)
                parts.append(np.hstack([expanded, col]))
        if parts:
            arr = np.vstack(parts)
        else:
            arr = np.empty((0, m), dtype=np.int64)
    memo[key] = arr
    return arr


def cover_hyperplane(coeffs, rhs, n: int, max_cubes: int = 5_000_000) -> CoverCertificate:
    """Certificate covering the 3^{-n}-neighborhood of {a.x = rhs} in the
    Cantor d-cube.  Float inputs enter at their exact binary values."""
    a = [_as_fraction(c) for c in coeffs]
    d = len(a)
    if d < 1 or all(c == 0 for c in a):
        raise ValueError("coeffs must be a nonzero vector")
    if n < 1:
        raise ValueError("n must be >= 1")
    worst = bound_constant(d) * 2 ** ((d - 1) * n)
    if worst > max_cubes:
        raise ResourceLimitError(
            f"certificate may need {worst} cubes, budget is {max_cubes}"
        )
    rho = _as_fraction(rhs)
    order = sorted(range(d), key=lambda i: -abs(a[i]))
    a_sorted = tuple(a[i] for i in order)
    cells_sorted = _cover_rec(a_sorted, d, n, rho, {})
    cells = np.empty_like(cells_sorted)
    cells[:, order] = cells_sorted
    if cells.shape[0] > worst:
        raise RuntimeError("covering recursion exceeded its proven bound")
    cells.flags.writeable = False
    return CoverCertificate(
        n=n, dimension=d, cells=cells, bound_constant=bound_constant(d)
    )


def measure_upper_bound(cert: CoverCertificate, d: int) -> float:
    """count * 2^{-dn}: each admissible depth-n cube carries mass 2^{-dn}."""
    if d != cert.dimension:
        raise ValueError("dimension mismatch")
    return cert.count * 2.0 ** (-d * cert.n)


def axis_subspace_measure(d: int, l: int, n: int) -> tuple[float, float]:
    """Exact mass bounds (2^{-l(n+1)}, 2^{-ln}) of the epsilon-neighborhood
    of an axis subspace of codimension l, for 3^{-(n+1)} < epsilon <= 3^{-n}."""
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2.0 ** (-l * (n + 1)), 2.0 ** (-l * n)


# ---------------------------------------------------------------------------
# empirical side


@dataclass(frozen=True)
class AlphaPoint:
    n: int
    epsilon: float
    mass: float
    ratio: float
    confidence: float
    query: SubspaceQuery


def subspace_mass(query: SubspaceQuery, points: np.ndarray) -> float:
    """Fraction of points within Euclidean epsilon of the subspace.

    Each normal row's distance sum_j r_j x_j - o is built one coordinate
    column at a time in plain float arithmetic, so the count does not depend
    on the BLAS build.  A Fortran-ordered ``points`` makes the columns
    contiguous.
    """
    rows = np.asarray(query.normal_rows, dtype=float).tolist()
    off = np.asarray(query.offset, dtype=float).tolist()
    eps2 = query.epsilon**2
    count = 0
    for lo in range(0, points.shape[0], _MASS_CHUNK):
        cols = points[lo : lo + _MASS_CHUNK].T
        dist2 = None
        for r, o in zip(rows, off):
            y = r[0] * cols[0]
            for r_j, x_j in zip(r[1:], cols[1:]):
                y += r_j * x_j
            y -= o
            y *= y
            dist2 = y if dist2 is None else dist2 + y
        count += int(np.count_nonzero(dist2 < eps2))
    return count / points.shape[0]


def _random_orthonormal(rng: np.random.Generator, l: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, l)))
    return q.T[:l]


def alpha_estimate(
    sys: IfsSystem,
    l: int,
    n_range: Sequence[int],
    search_budget: int = 200,
    seed: int = 0,
    sample_count: int = 100_000,
) -> list[AlphaPoint]:
    """log mass / log epsilon over the searched subspace family, per n.

    The search family mixes axis-aligned planes (offsets at 0, 1, and at
    sampled fractal points), random orthonormal frames through sampled
    points, and local hill-climbing from the best candidate so far; every
    mass evaluation counts against search_budget.
    """
    d = sys.dimension
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    if search_budget < 1 or sample_count < 1:
        raise ValueError("search_budget and sample_count must be positive")
    for n in n_range:
        # from n = 340 on, epsilon^2 underflows: subspace_mass would count no
        # point because of the arithmetic, not the geometry
        if (3.0**-n) ** 2 == 0.0:
            raise ValueError(f"n = {n} is too large: epsilon^2 = 3^(-2n) underflows to 0.0")
    rng = np.random.default_rng(seed)
    pts = sample_fractal(sys, sample_count, seed=int(rng.integers(2**32)))
    # column-major copy, so subspace_mass reads each coordinate contiguously
    pts_by_column = np.asfortranarray(pts)
    out = []
    for n in n_range:
        epsilon = 3.0**-n
        budget = search_budget
        best: tuple[float, SubspaceQuery] | None = None

        def consider(rows, off):
            nonlocal budget, best
            if budget <= 0:
                return
            q = SubspaceQuery(rows, np.asarray(off, dtype=float), epsilon)
            budget -= 1
            m = subspace_mass(q, pts_by_column)
            if best is None or m > best[0]:
                best = (m, q)

        eye = np.eye(d)
        anchor_ids = rng.integers(0, sample_count, size=4)
        for subset in itertools.combinations(range(d), l):
            rows = eye[list(subset)]
            consider(rows, np.zeros(l))
            consider(rows, np.ones(l))
            for j in anchor_ids:
                consider(rows, pts[j][list(subset)])
        n_random = min(budget, max(4, search_budget // 8))
        for _ in range(n_random):
            rows = _random_orthonormal(rng, l, d)
            consider(rows, rows @ pts[rng.integers(0, sample_count)])
        while budget > 0 and best is not None:
            m0, q0 = best
            if rng.random() < 0.5:
                off = q0.offset + epsilon * 0.5 * rng.standard_normal(l)
                consider(q0.normal_rows, off)
            else:
                rows = _random_orthonormal(
                    rng, l, d
                ) if d == l else np.linalg.qr(
                    (q0.normal_rows + 0.05 * rng.standard_normal((l, d))).T
                )[0].T[:l]
                consider(rows, rows @ (q0.normal_rows.T @ q0.offset))
        mass, query = best
        if mass > 0.0:
            ratio = math.log(mass) / math.log(epsilon)
            se = math.sqrt(mass * (1.0 - mass) / sample_count)
            confidence = _Z_95 * se / (mass * abs(math.log(epsilon)))
        else:
            ratio = math.inf
            confidence = math.inf
        out.append(
            AlphaPoint(
                n=int(n),
                epsilon=epsilon,
                mass=mass,
                ratio=ratio,
                confidence=confidence,
                query=query,
            )
        )
    return out


def varpi_of(alphas: Sequence[float], d: int) -> float:
    """min over l = 1..d of alphas[l-1] * (d - l + 1)."""
    if len(alphas) != d:
        raise ValueError(f"need {d} alpha values, got {len(alphas)}")
    return min(float(alphas[i]) * (d - i) for i in range(d))


def cantor_axis_alpha(l: int) -> float:
    """l log2/log3: the exact contraction exponent of codimension-l axis
    subspaces of the Cantor power."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return l * math.log(2.0) / math.log(3.0)


def cantor_varpi(d: int) -> float:
    return varpi_of([cantor_axis_alpha(l) for l in range(1, d + 1)], d)
