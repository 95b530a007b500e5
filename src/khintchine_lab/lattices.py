"""Sup-norm shortest vectors and heights on the space of unimodular lattices.

Convention: the coset of g corresponds to the lattice spanned by the ROWS of
g^{-1}.  For g = a_t u_x the rows are (e^{-t} q, e^{t/d}(q x + p)) over
integer (q, p), the simultaneous-approximation lattice; this is the choice
under which the Dani correspondence holds verbatim, and the approximability
cross-check pins it.

Delta(g) is the sup norm of a shortest nonzero lattice vector, found by
Lovasz reduction plus exhaustive enumeration over the Euclidean ball that
certifiably contains every sup-norm minimizer; l(g) = -log Delta(g).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .flows import GroupElement, diagonal_point

DIMENSION_LIMIT = 6
SINGULAR_TOL = 1e-250
# Euclidean radius guard: any vector with sup norm <= best satisfies
# |v|_2^2 <= k best^2; the tiny inflation absorbs roundoff in the Gram data.
BALL_INFLATION = 1.0 + 1e-9


@dataclass(frozen=True)
class CompactWindow:
    """Sublevel window Y_L = {x : l(x) <= L}; compact by Mahler's criterion."""

    level: float

    def __post_init__(self):
        level = float(self.level)
        if not math.isfinite(level):
            raise ValueError(f"window level must be finite, got {level}")
        object.__setattr__(self, "level", level)

    def contains_height(self, l: float) -> bool:
        # closed sublevel set: boundary heights count as inside
        return l <= self.level


class ReductionGuardError(RuntimeError):
    """A reduction loop reached its iteration limit before the basis was
    reduced; the partly reduced basis is not handed back."""


# Iteration limits of the reduction loops (module-level so tests can lower them).
LLL_ITERATION_LIMIT = 10_000
LAGRANGE_ITERATION_LIMIT = 64
# Most coefficient vectors brute_force_shortest enumerates; a05's d = 3 box
# has 31^4, under a million
BRUTE_FORCE_POINT_LIMIT = 2_000_000


class SearchBoxLimitError(RuntimeError):
    """The brute-force coefficient box holds more points than the limit."""


def _canonical(coeffs: tuple) -> tuple:
    """Sign normalization: first nonzero coefficient positive."""
    for v in coeffs:
        if v:
            return coeffs if v > 0 else tuple(-c for c in coeffs)
    return coeffs


def _dot(a: list, b: list) -> float:
    # correctly rounded, so the same float on every IEEE platform
    return math.fsum(map(mul, a, b))


def _gram(rows: list, start: int = 0, data: tuple | None = None) -> tuple[list, list, list]:
    """Gram-Schmidt data of the rows: (mu, norms, stars) with
    mu[i][j] = <b_i, b*_j>/|b*_j|^2 for j < i, norms[i] = |b*_i|^2 and
    stars[i] = b*_i.  A numerically zero b*_j contributes no projection.

    The data of row i depends on rows 0..i only, so after a change to rows
    >= ``start`` the rows below keep their entries of ``data`` and only the
    rest is recomputed, with the same floats as a full run.
    """
    if data is None:
        mu, norms, stars = [], [], []
    else:
        mu, norms, stars = data
        del mu[start:], norms[start:], stars[start:]
    k = len(rows)
    for b in rows[start:]:
        v = b
        mu_row = [0.0] * k
        for j, (star, norm) in enumerate(zip(stars, norms)):
            if norm > SINGULAR_TOL:
                m = _dot(b, star) / norm
                mu_row[j] = m
                v = [x - m * y for x, y in zip(v, star)]
        stars.append(v)
        norms.append(_dot(v, v))
        mu.append(mu_row)
    return mu, norms, stars


def lll_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lovasz-reduce the rows of ``basis`` with the Lovasz constant 0.99;
    returns (reduced, U) with reduced = U @ basis and U integer unimodular.

    Size reduction runs j = i-1..0 with the coefficients mu[i][j] of the
    Gram-Schmidt data taken before the pass; the data is brought up to date
    after a pass that changed b_i and after every swap.  Every decision
    (round(mu) and the Lovasz test) reads that data, which is plain IEEE
    doubles with each dot product correctly rounded by ``math.fsum``; so the
    decisions, ties included, and the reduced floats are the same on every
    IEEE platform whatever BLAS numpy uses.  Three rows run ``_lll_3``, the
    loop unrolled, and any other number ``_lll_loop``: same floats.  The
    Gram-Schmidt data of the reduced rows is not returned; ``_gram`` of them
    gives the same floats.
    """
    b, u, _, _ = _lll(np.asarray(basis, dtype=float).tolist())
    return np.array(b), np.array(u, dtype=np.int64)


def _lll(b: list) -> tuple[list, list, list, list]:
    """``lll_reduce`` on the rows ``b`` (lists of floats, changed in place):
    the reduced rows, the rows of U, and the reduced rows' Gram-Schmidt mu
    and norms, as lists."""
    return (_lll_3 if len(b) == 3 else _lll_loop)(b)


def _lll_loop(b: list) -> tuple[list, list, list, list]:
    """``_lll`` on any number of rows."""
    k = len(b)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    data = _gram(b)
    mu, norms, _ = data
    if min(norms) < SINGULAR_TOL:
        raise ValueError("numerically singular basis")
    i = 1
    iterations = 0
    while i < k:
        iterations += 1
        if iterations > LLL_ITERATION_LIMIT:
            raise ReductionGuardError(
                f"LLL stopped after {LLL_ITERATION_LIMIT} iterations"
            )
        changed = False
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                u[i] = [x - q * y for x, y in zip(u[i], u[j])]
                changed = True
        if changed:
            _gram(b, i, data)
        if norms[i] >= (0.99 - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i - 1], b[i] = b[i], b[i - 1]
            u[i - 1], u[i] = u[i], u[i - 1]
            _gram(b, i - 1, data)
            i = max(i - 1, 1)
    return b, u, mu, norms


def _gram_row1(b: list, s0: list, n0: float) -> tuple[float, tuple, float]:
    """``_gram``'s row 1 of three: mu[1][0], b*_1 and |b*_1|^2."""
    b0, b1, b2 = b
    if n0 > SINGULAR_TOL:
        x, y, z = s0
        m = math.fsum((b0 * x, b1 * y, b2 * z)) / n0
        b0, b1, b2 = b0 - m * x, b1 - m * y, b2 - m * z
    else:
        m = 0.0
    return m, (b0, b1, b2), math.fsum((b0 * b0, b1 * b1, b2 * b2))


def _gram_row2(c: list, s0: list, n0: float, s1: tuple, n1: float) -> tuple[float, float, float]:
    """``_gram``'s row 2 of three: mu[2][0], mu[2][1] and |b*_2|^2."""
    c0, c1, c2 = c
    v0, v1, v2 = c
    m0 = m1 = 0.0
    if n0 > SINGULAR_TOL:
        x, y, z = s0
        m0 = math.fsum((c0 * x, c1 * y, c2 * z)) / n0
        v0, v1, v2 = v0 - m0 * x, v1 - m0 * y, v2 - m0 * z
    if n1 > SINGULAR_TOL:
        x, y, z = s1
        m1 = math.fsum((c0 * x, c1 * y, c2 * z)) / n1
        v0, v1, v2 = v0 - m1 * x, v1 - m1 * y, v2 - m1 * z
    return m0, m1, math.fsum((v0 * v0, v1 * v1, v2 * v2))


def _lll_3(b: list) -> tuple[list, list, list, list]:
    """``_lll_loop`` on three rows, unrolled: i is 1 or 2, and the
    Gram-Schmidt data lives in locals (b*_0 is row 0 itself, and b*_2 is
    needed only for its norm).  Every float operation, skip and decision is
    the loop's, in the loop's order, so the rows, U, mu and norms are its
    floats bit for bit."""
    r0, r1, r2 = b
    u0, u1, u2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    n0 = math.fsum((r0[0] * r0[0], r0[1] * r0[1], r0[2] * r0[2]))
    m10, s1, n1 = _gram_row1(r1, r0, n0)
    m20, m21, n2 = _gram_row2(r2, r0, n0, s1, n1)
    if min(n0, n1, n2) < SINGULAR_TOL:
        raise ValueError("numerically singular basis")
    i = 1
    iterations = 0
    while i < 3:
        iterations += 1
        if iterations > LLL_ITERATION_LIMIT:
            raise ReductionGuardError(
                f"LLL stopped after {LLL_ITERATION_LIMIT} iterations"
            )
        if i == 1:
            q = round(m10)
            if q:
                r1 = [r1[0] - q * r0[0], r1[1] - q * r0[1], r1[2] - q * r0[2]]
                u1 = (u1[0] - q * u0[0], u1[1] - q * u0[1], u1[2] - q * u0[2])
                m10, s1, n1 = _gram_row1(r1, r0, n0)
                m20, m21, n2 = _gram_row2(r2, r0, n0, s1, n1)
            if n1 >= (0.99 - m10 ** 2) * n0:
                i = 2
                continue
            r0, r1, u0, u1 = r1, r0, u1, u0
            n0 = math.fsum((r0[0] * r0[0], r0[1] * r0[1], r0[2] * r0[2]))
        else:
            # j = 1, then j = 0, both with the mu from before the pass
            q1, q0 = round(m21), round(m20)
            if q1:
                r2 = [r2[0] - q1 * r1[0], r2[1] - q1 * r1[1], r2[2] - q1 * r1[2]]
                u2 = (u2[0] - q1 * u1[0], u2[1] - q1 * u1[1], u2[2] - q1 * u1[2])
            if q0:
                r2 = [r2[0] - q0 * r0[0], r2[1] - q0 * r0[1], r2[2] - q0 * r0[2]]
                u2 = (u2[0] - q0 * u0[0], u2[1] - q0 * u0[1], u2[2] - q0 * u0[2])
            if q1 or q0:
                m20, m21, n2 = _gram_row2(r2, r0, n0, s1, n1)
            if n2 >= (0.99 - m21 ** 2) * n1:
                break
            r1, r2, u1, u2 = r2, r1, u2, u1
            i = 1
        # a swap: the data from the lower of the two swapped rows up
        m10, s1, n1 = _gram_row1(r1, r0, n0)
        m20, m21, n2 = _gram_row2(r2, r0, n0, s1, n1)
    mu = [[0.0, 0.0, 0.0], [m10, 0.0, 0.0], [m20, m21, 0.0]]
    return [r0, r1, r2], [u0, u1, u2], mu, [n0, n1, n2]


def _search(rows: list, mu: list, norms: list) -> tuple[float, list[tuple]]:
    """All coefficient vectors (w.r.t. the reduced rows, one of each +-pair)
    achieving the minimal sup norm, by depth-first search over the certified
    Euclidean ball; ``mu`` and ``norms`` are the rows' Gram-Schmidt data.

    Children are visited in Schnorr-Euchner zig-zag order (nondecreasing
    distance to the projected center), so a level stops at its first child
    outside the ball.  A leaf's sup norm is taken in plain floats, its vector
    accumulated from level k-1 down to 0, and Delta is the smallest of them.
    Three rows run ``_search_3``, the search as three nested loops, and any
    other number ``_search_loop``: same floats, same leaves in the same order.
    """
    if min(norms) < SINGULAR_TOL:
        raise ValueError("numerically singular basis")
    return (_search_3 if len(rows) == 3 else _search_loop)(rows, mu, norms)


def _search_loop(rows: list, mu: list, norms: list) -> tuple[float, list[tuple]]:
    """``_search`` on any number of rows."""
    k = len(rows)
    row_sups = [max(map(abs, row)) for row in rows]
    best = min(row_sups)
    # (sup, coeffs); seeded with the minimal rows
    leaves = [
        (s, tuple(int(j == i) for j in range(k)))
        for i, s in enumerate(row_sups)
        if s == best
    ]
    xs = [0] * k
    ball = k * BALL_INFLATION  # |v|_2^2 <= k |v|_inf^2

    def visit(i: int, partial: float, vec: list, top: bool):
        # top: every coefficient above level i is zero, so the center is 0
        # and only x >= 0 is searched (v and -v have the same sup norm)
        nonlocal best
        center = 0.0
        for j in range(i + 1, k):
            center -= mu[j][i] * xs[j]
        norm = norms[i]
        row = rows[i]
        x = round(center)
        step = 1 if top or center >= x else -1
        n = 0
        while True:
            p = partial + norm * (x - center) ** 2
            if p > ball * best * best:
                break
            xs[i] = x
            if i:
                visit(i - 1, p, [a + x * y for a, y in zip(vec, row)], top and x == 0)
            elif x or not top:
                s = max([abs(a + x * y) for a, y in zip(vec, row)])
                if s <= best:
                    leaves.append((s, tuple(xs)))
                    if s < best:
                        best = s
            n += 1
            if top:
                x += 1
            else:
                x += step * n
                step = -step
        xs[i] = 0

    visit(k - 1, 0.0, [0.0] * k, True)
    # a minimal row is found again by the search
    return best, list(dict.fromkeys(c for s, c in leaves if s == best))


def _search_3(rows: list, mu: list, norms: list) -> tuple[float, list[tuple]]:
    """``_search_loop`` on three rows as three nested loops over x2, x1, x0,
    with ``visit``'s centers, partial norms, zig-zag order and pruning.
    Level 2 is always the top (center 0, x2 = 0, 1, ...).  The level-2
    vector is x2 * row 2 where ``visit`` adds it to 0.0: they differ at most
    in the sign of a zero, which every later sum carries only into a zero
    and the leaf's abs removes."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    n0, n1, n2 = norms
    m10 = mu[1][0]
    m20, m21 = mu[2][0], mu[2][1]
    sa = max(abs(a0), abs(a1), abs(a2))
    sb = max(abs(b0), abs(b1), abs(b2))
    sc = max(abs(c0), abs(c1), abs(c2))
    best = min(sa, sb, sc)
    leaves = [(s, c) for s, c in ((sa, (1, 0, 0)), (sb, (0, 1, 0)), (sc, (0, 0, 1))) if s == best]
    ball = 3 * BALL_INFLATION
    bound = ball * best * best
    x2 = 0
    while True:
        p2 = 0.0 + n2 * (x2 - 0.0) ** 2
        if p2 > bound:
            return best, list(dict.fromkeys(c for s, c in leaves if s == best))
        w0, w1, w2 = x2 * c0, x2 * c1, x2 * c2
        top1 = x2 == 0
        center1 = 0.0 - m21 * x2
        x1 = round(center1)
        step1 = 1 if top1 or center1 >= x1 else -1
        k1 = 0
        while True:
            p1 = p2 + n1 * (x1 - center1) ** 2
            if p1 > bound:
                break
            v0, v1, v2 = w0 + x1 * b0, w1 + x1 * b1, w2 + x1 * b2
            top0 = top1 and x1 == 0
            center0 = 0.0 - m10 * x1 - m20 * x2
            x0 = round(center0)
            step0 = 1 if top0 or center0 >= x0 else -1
            k0 = 0
            while True:
                p0 = p1 + n0 * (x0 - center0) ** 2
                if p0 > bound:
                    break
                if x0 or not top0:
                    s = max(abs(v0 + x0 * a0), abs(v1 + x0 * a1), abs(v2 + x0 * a2))
                    if s <= best:
                        leaves.append((s, (x0, x1, x2)))
                        if s < best:
                            best = s
                            bound = ball * best * best
                k0 += 1
                if top0:
                    x0 += 1
                else:
                    x0 += step0 * k0
                    step0 = -step0
            k1 += 1
            if top1:
                x1 += 1
            else:
                x1 += step1 * k1
                step1 = -step1
        x2 += 1


# Lagrange-reduced 2x2 bases: every sup minimizer is among b1, b2, b1 +/- b2
# (any other combination has Euclidean norm above sqrt(2) |b1|_2)
_2X2_COEFFS = ((1, 0), (0, 1), (1, 1), (1, -1))
_2X2_TABLE = np.array(_2X2_COEFFS, dtype=float)


def _lagrange_2x2(m00: float, m01: float, m10: float, m11: float) -> tuple[tuple, tuple]:
    """Lagrange-reduce the 2x2 row basis ((m00, m01), (m10, m11)) in plain
    floats; returns the reduced rows (m00, m01, m10, m11) and the integer
    rows ((u00, u01), (u10, u11)) of U with reduced = U @ basis."""
    u00, u01, u10, u11 = 1, 0, 0, 1
    for _ in range(LAGRANGE_ITERATION_LIMIT):
        n0 = m00 * m00 + m01 * m01
        n1 = m10 * m10 + m11 * m11
        if n0 > n1:
            m00, m01, m10, m11 = m10, m11, m00, m01
            u00, u01, u10, u11 = u10, u11, u00, u01
            n0 = n1
        if n0 < SINGULAR_TOL:
            raise ValueError("numerically singular basis")
        q = round((m10 * m00 + m11 * m01) / n0)
        if q == 0:
            return (m00, m01, m10, m11), ((u00, u01), (u10, u11))
        m10 -= q * m00
        m11 -= q * m01
        u10 -= q * u00
        u11 -= q * u01
    raise ReductionGuardError(
        f"Lagrange reduction stopped after {LAGRANGE_ITERATION_LIMIT} iterations"
    )


def _sup_2x2(m00: float, m01: float, m10: float, m11: float) -> tuple[float, list]:
    """Smallest sup norm over the candidates of a Lagrange-reduced 2x2 basis,
    and every candidate in ``_2X2_COEFFS`` that attains it."""
    a0, a1 = abs(m00), abs(m01)
    b0, b1 = abs(m10), abs(m11)
    p0, p1 = abs(m00 + m10), abs(m01 + m11)
    n0, n1 = abs(m00 - m10), abs(m01 - m11)
    sups = (
        a0 if a0 >= a1 else a1,
        b0 if b0 >= b1 else b1,
        p0 if p0 >= p1 else p1,
        n0 if n0 >= n1 else n1,
    )
    best = min(sups)
    # a walk's steps mostly have one minimizer: taking it by index skips the
    # comprehension, about 9% of a diagonal_heights step at d = 1
    if sups.count(best) == 1:
        return best, [_2X2_COEFFS[sups.index(best)]]
    return best, [c for c, s in zip(_2X2_COEFFS, sups) if s == best]


def _lagrange_reduce(b: np.ndarray) -> np.ndarray:
    """Lagrange-reduce every basis of a [row, column, basis] array in
    lockstep, overwriting it where no swap is needed.

    Each pass is ``_lagrange_2x2``'s float arithmetic applied elementwise
    (``np.rint`` rounds half to even like ``round``), so each basis gets the
    floats it would get alone: a converged basis is left as it is by further
    passes (no swap, q = 0 again), and the pass limit trips exactly when one
    basis needs more than ``LAGRANGE_ITERATION_LIMIT`` iterations.
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


def _reduced_sups(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep ``_reduce`` over the 2x2 bases of a [row, column, basis]
    array: the reduced array and each basis's Delta, with the floats of
    ``_lagrange_2x2`` and ``_sup_2x2``.  The candidate products have
    coefficients 0 and +-1, so they are exact and each entry rounds once."""
    b = _lagrange_reduce(b)
    cand = np.abs((_2X2_TABLE @ b.reshape(2, -1)).reshape(4, 2, -1))
    return b, cand.max(axis=1).min(axis=0)


def _reduce(basis: np.ndarray) -> tuple:
    """Reduced rows of a row basis (lists of floats), the rows of U with
    reduced = U @ basis, the sup norm Delta of its shortest vector and every
    coefficient vector w.r.t. the reduced rows that attains it (one of each
    +-pair), up to ``DIMENSION_LIMIT`` rows for every caller: Lagrange and the
    candidate scan for 2x2; above, ``lll_reduce``, then ``_gram`` of the
    reduced rows and the enumeration ``_search``."""
    k = len(basis)
    if k > DIMENSION_LIMIT:
        raise ValueError(f"dimension {k} above certified range {DIMENSION_LIMIT}")
    if k == 2:
        return _reduce_rows(basis.tolist())
    reduced, u = lll_reduce(basis)
    rows = reduced.tolist()
    mu, norms, _ = _gram(rows)
    return rows, u.tolist(), *_search(rows, mu, norms)


def _reduce_rows(rows: list) -> tuple:
    """``_reduce`` of a basis given as lists of floats (changed in place) on
    the same kernels, with no ndarray on the way: the search reads the mu and
    norms that ``_lll`` returns with the reduced rows."""
    if len(rows) == 2:
        (m00, m01), (m10, m11) = rows
        reduced, u = _lagrange_2x2(m00, m01, m10, m11)
        return [reduced[:2], reduced[2:]], u, *_sup_2x2(*reduced)
    reduced, u, mu, norms = _lll(rows)
    return reduced, u, *_search(reduced, mu, norms)


def _times(b: np.ndarray, s) -> np.ndarray:
    """The product b @ s over b's first two axes, columns of b times rows of
    s, summed left to right in elementwise IEEE arithmetic (no BLAS), so the
    floats are the same on every platform.  Trailing axes of a
    [row, column, basis] array of bases broadcast."""
    out = b[:, 0:1] * s[0]
    for i in range(1, len(s)):
        out += b[:, i : i + 1] * s[i]
    return out


def _scaled(rows: list, diagonal: list) -> list:
    """The rows times the diagonal matrix with entries ``diagonal``: each
    column scaled by its entry, the products ``np.multiply`` makes (the
    off-diagonal products of B @ diag are exact zeros)."""
    return [list(map(mul, row, diagonal)) for row in rows]


def _product(rows: list, columns: list) -> list:
    """The rows times the matrix with columns ``columns``, each entry summed
    left to right as ``_times`` sums it (three columns, written out, take a
    third of the time of the general fold)."""
    if len(columns) == 3:
        return [[a * x + b * y + c * z for x, y, z in columns] for a, b, c in rows]
    return [[functools.reduce(add, map(mul, row, col)) for col in columns] for row in rows]


def _walk(basis: np.ndarray, factors, times=_scaled):
    """Yields ``_reduce`` of ``basis``, then ``_reduce_rows`` of each reduced
    basis times the next of ``factors``, which act on the right and so
    commute with the integer change of rows.  Only the start is an ndarray,
    reduced cold (above 2x2 by ``lll_reduce``, its Gram-Schmidt data
    recomputed for the search); from there the rows stay lists of Python
    floats, and each search reads the mu and norms of the ``_lll`` call that
    reduced them.  ``_scaled`` multiplies by a diagonal given as its entries,
    ``_product`` by a step matrix given as its columns."""
    reduced = _reduce(basis)
    yield reduced
    for factor in factors:
        reduced = _reduce_rows(times(reduced[0], factor))
        yield reduced


def _flow_walk(x, t: float, h: float, n: int):
    """``_walk`` of the dual bases of a_s u_x at s = t, t + h, ..., t + n h,
    each the one before times diag(e^-h, e^(h/d) I_d)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    step = [math.exp(-h)] + [math.exp(h / x.size)] * x.size
    return _walk(dual_basis(diagonal_point(x, t)), itertools.repeat(step, n))


def shortest_of_basis(basis: np.ndarray) -> tuple[float, np.ndarray]:
    """Certified sup-norm shortest vector of the lattice spanned by the rows.

    Returns (delta, witness) where witness are integer coefficients w.r.t.
    the given rows: of all minimizers, sign-normalized (first nonzero
    positive), the lexicographically least.
    """
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be square")
    # the method, not np.all: a third of the cost of a 2x2 call
    if not np.isfinite(b).all():
        raise ValueError("basis has non-finite entries")
    _, u, delta, coeff_list = _reduce(b)
    return delta, _witness(u, coeff_list)


def _witness(u, coeff_list: list) -> np.ndarray:
    """The witness rule of ``shortest_of_basis``: each coefficient vector of
    ``coeff_list`` (w.r.t. reduced rows U @ basis) taken back to the basis
    rows through the integer rows of U, sign-normalized, and of those the
    lexicographically least."""
    columns = list(zip(*u))
    witnesses = [
        _canonical(tuple(sum(map(mul, c, col)) for col in columns)) for c in coeff_list
    ]
    return np.array(min(witnesses), dtype=np.int64)


def certified_box(basis: np.ndarray) -> tuple[int, ...]:
    """Per-coefficient bounds that contain every sup-norm minimizer.

    Writing v = c B, c_i = sum_j v_j (B^{-1})_{ji}, so |c_i| <= |v|_inf
    |B^{-1}[:, i]|_1, and a minimizer has |v|_inf at most the smallest row
    sup norm.  The relative inflation absorbs roundoff in the inverse.
    """
    b = np.asarray(basis, dtype=float)
    s = float(np.min(np.max(np.abs(b), axis=1)))
    columns = np.abs(np.linalg.inv(b)).sum(axis=0)
    return tuple(int(math.floor(s * float(c) * (1.0 + 1e-9))) for c in columns)


@functools.lru_cache(maxsize=16)
def _brute_grid(bounds: tuple[int, ...]) -> np.ndarray:
    dtype = np.int8 if max(bounds) < 127 else np.int64
    axes = [np.arange(-m, m + 1, dtype=dtype) for m in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def brute_force_shortest(
    basis: np.ndarray, coeff_bound: int | None = None
) -> tuple[float, np.ndarray]:
    """Oracle route: exhaustive search over an integer coefficient box.

    Deliberately independent of the reduction-based path so the two can be
    compared.  By default the box is ``certified_box(basis)``, which holds
    every minimizer; an explicit ``coeff_bound`` searches |c_i| <= bound and
    is only valid when some minimizer lies in that box.  A box of more than
    ``BRUTE_FORCE_POINT_LIMIT`` points raises ``SearchBoxLimitError`` before
    anything is allocated; a box with no nonzero point, or a basis with a
    non-finite entry, raises ``ValueError``.

    Only half the box is searched: the rows after the zero row of the
    lexicographic grid, exactly the vectors whose first nonzero coefficient
    is positive (c and -c have the same float sup norm).  Each sup norm is
    folded one basis column at a time in elementwise IEEE arithmetic, rows
    accumulated from k - 1 down to 0, with no BLAS product.  The first
    minimum in grid order is the lexicographically least sign-normalized
    minimizer, the witness rule of ``shortest_of_basis``.
    """
    b = np.asarray(basis, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("basis has non-finite entries")
    k = b.shape[0]
    bounds = certified_box(b) if coeff_bound is None else (int(coeff_bound),) * k
    points = math.prod(2 * m + 1 for m in bounds)
    if points > BRUTE_FORCE_POINT_LIMIT:
        raise SearchBoxLimitError(
            f"search box has {points} points, limit is {BRUTE_FORCE_POINT_LIMIT}"
        )
    if points == 1:
        raise ValueError(f"search box {bounds} has no nonzero point")
    half = _brute_grid(bounds)[points // 2 + 1 :]
    coeffs = half.T.astype(float, order="C")
    sup = np.zeros(len(half))
    for col in b.T.tolist():
        v = coeffs[k - 1] * col[k - 1]
        for i in range(k - 2, -1, -1):
            v += coeffs[i] * col[i]
        np.maximum(sup, np.abs(v), out=sup)
    best = int(np.argmin(sup))
    return float(sup[best]), half[best].astype(np.int64)


def dual_basis(point) -> np.ndarray:
    """Working lattice basis of a coset: the rows of g^{-1}."""
    g = point if isinstance(point, GroupElement) else GroupElement(point)
    return g.inverse().matrix


def shortest_vector(point) -> tuple[float, np.ndarray]:
    return shortest_of_basis(dual_basis(point))


def height(point) -> float:
    delta, _ = shortest_vector(point)
    return -math.log(delta)


def in_window(point, window: CompactWindow) -> bool:
    return window.contains_height(height(point))

