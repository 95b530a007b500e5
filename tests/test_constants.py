import itertools
import math

import numpy as np
import pytest

from khintchine_lab import constants, ifs
from khintchine_lab.constants import (
    CoverCertificate,
    ResourceLimitError,
    SubspaceQuery,
)

LOG23 = math.log(2.0) / math.log(3.0)


def admissible_cells(d, n):
    digits = list(itertools.product((0, 2), repeat=n))
    ks = [sum(dig * 3**i for i, dig in enumerate(reversed(w))) for w in digits]
    return np.array(list(itertools.product(ks, repeat=d)), dtype=np.int64)


def test_bound_constant_doubles():
    assert [constants.bound_constant(d) for d in (1, 2, 3, 4)] == [3, 6, 12, 24]
    with pytest.raises(ValueError):
        constants.bound_constant(0)


def test_gap_plane_needs_no_cubes():
    cert = constants.cover_hyperplane([1], 0.5, 3)
    assert cert.count == 0


def test_diagonal_plane_d2_frozen_count():
    cert = constants.cover_hyperplane([1, 1], 1, 6)
    assert cert.count == 128
    assert cert.count <= cert.bound_constant * 2 ** ((2 - 1) * 6)


def test_cover_is_sound_by_enumeration():
    # every admissible cube meeting the euclidean 3^-n neighborhood of the
    # plane must be in the certificate; full enumeration is the oracle
    cases = [
        ([1], 2, 5, 0.25),
        ([1, 1], 6, 1.0, None),
        ([2, -1], 5, 0.5, None),
        ([1, 1, 1], 3, 1.5, None),
        # n < d - 1: the recursion reaches depth 0 with more than one
        # coordinate left (_cover_rec's lam == 0 base case)
        ([1, 1, 1], 1, 1.5, None),
        ([1, 2, 3], 1, 3.0, None),
        ([1, 1, 1, 1], 1, 2.0, None),
        ([1, 1, 1, 1], 2, 2.0, None),
    ]
    for case in cases:
        if len(case[0]) == 1:
            coeffs, d, n, rhs = case[0], 1, case[2], case[3]
        else:
            coeffs, n, rhs = case[0], case[1], case[2]
            d = len(coeffs)
        cert = constants.cover_hyperplane(coeffs, rhs, n)
        a = np.asarray(coeffs, dtype=float)
        eps = 3.0**-n
        radius = float(np.linalg.norm(a)) * eps
        cells = admissible_cells(d, n)
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        vals = (cells[:, None, :] + corners[None, :, :]) @ a * eps
        lo, hi = vals.min(axis=1), vals.max(axis=1)
        near = (lo < rhs + radius) & (hi > rhs - radius)
        certified = set(map(tuple, cert.cells.tolist()))
        assert set(map(tuple, cells[near].tolist())) <= certified
        assert cert.count <= cert.bound_constant * 2 ** ((d - 1) * n)


def test_certificate_cells_are_admissible_and_unique():
    cert = constants.cover_hyperplane([2, -1], 0.5, 5)
    base = {int(k) for k in admissible_cells(1, 5).ravel()}
    assert all(int(k) in base for k in cert.cells.ravel())
    packed = cert.cells @ (3**5) ** np.arange(2)
    assert len(set(packed.tolist())) == cert.count


def test_cover_input_validation_and_budget():
    with pytest.raises(ValueError):
        constants.cover_hyperplane([0, 0], 0.0, 3)
    with pytest.raises(ValueError):
        constants.cover_hyperplane([1], 0.5, 0)
    with pytest.raises(ResourceLimitError, match="budget"):
        constants.cover_hyperplane([1, 1, 1], 1.0, 4, max_cubes=10)


def test_measure_upper_bound_scaling():
    cert = constants.cover_hyperplane([1, 1], 1, 6)
    assert constants.measure_upper_bound(cert, 2) == pytest.approx(128 * 2.0**-12)
    with pytest.raises(ValueError, match="mismatch"):
        constants.measure_upper_bound(cert, 3)


def test_axis_subspace_measure_values():
    lo, hi = constants.axis_subspace_measure(3, 2, 4)
    assert lo == pytest.approx(2.0**-10)
    assert hi == pytest.approx(2.0**-8)
    assert constants.axis_subspace_measure(2, 1, 0) == (0.5, 1.0)
    with pytest.raises(ValueError):
        constants.axis_subspace_measure(2, 3, 4)
    with pytest.raises(ValueError):
        constants.axis_subspace_measure(2, 1, -1)


def test_subspace_query_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceQuery(np.array([[1.0, 1.0]]), np.zeros(1), 0.1)
    with pytest.raises(ValueError, match="codim"):
        SubspaceQuery(np.eye(3)[:, :2], np.zeros(3), 0.1)  # more rows than columns
    with pytest.raises(ValueError, match="offset"):
        SubspaceQuery(np.eye(2)[:1], np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        SubspaceQuery(np.eye(2)[:1], np.zeros(1), 0.0)
    SubspaceQuery(np.eye(3)[:2], np.zeros(2), 0.5)


def test_subspace_mass_counts_band():
    pts = np.array([[0.0, 0.0], [0.5, 0.9], [0.48, 0.1], [1.0, 1.0]])
    q = SubspaceQuery(np.array([[1.0, 0.0]]), np.array([0.5]), 0.05)
    assert constants.subspace_mass(q, pts) == pytest.approx(0.5)


def _direct_mass(query, points):
    # per point, sum_j r_j x_j - o per normal row, squared and summed
    inside = 0
    for x in points.tolist():
        dist2 = 0.0
        for r, o in zip(query.normal_rows.tolist(), query.offset.tolist()):
            y = r[0] * x[0]
            for r_j, x_j in zip(r[1:], x[1:]):
                y += r_j * x_j
            y -= o
            dist2 += y * y
        inside += dist2 < query.epsilon**2
    return inside / len(points)


@pytest.mark.parametrize("d, l", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_subspace_mass_matches_direct_count(d, l):
    pts = ifs.sample_fractal(ifs.cantor_product(d), 400, seed=d + 10 * l)
    rng = np.random.default_rng(31)
    queries = []
    for n in (1, 2, 4):
        for j in rng.integers(0, len(pts), size=3):
            # an axis plane through a sample point (that point at distance
            # exactly 0) and a random frame through the same point
            subset = sorted(rng.choice(d, size=l, replace=False).tolist())
            queries.append(SubspaceQuery(np.eye(d)[subset], pts[j][subset], 3.0**-n))
            frame = np.linalg.qr(rng.standard_normal((d, l)))[0].T
            queries.append(SubspaceQuery(frame, frame @ pts[j], 3.0**-n))
    for q in queries:
        mass = constants.subspace_mass(q, pts)
        assert mass == _direct_mass(q, pts) >= 1 / len(pts)
        assert constants.subspace_mass(q, np.asfortranarray(pts)) == mass


def test_alpha_estimate_finds_axis_planes():
    sys = ifs.cantor_product(2)
    pts = constants.alpha_estimate(
        sys, 1, n_range=(2, 3), search_budget=60, seed=4, sample_count=30_000
    )
    again = constants.alpha_estimate(
        sys, 1, n_range=(2, 3), search_budget=60, seed=4, sample_count=30_000
    )
    for p, p2 in zip(pts, again):
        assert (p.n, p.mass, p.ratio) == (p2.n, p2.mass, p2.ratio)
        assert np.array_equal(p.query.normal_rows, p2.query.normal_rows)
        assert np.array_equal(p.query.offset, p2.query.offset)
    for p in pts:
        assert p.epsilon == pytest.approx(3.0**-p.n)
        assert 0.0 < p.mass < 1.0
        assert p.ratio == pytest.approx(math.log(p.mass) / math.log(p.epsilon))
        assert math.isfinite(p.confidence)
        # the searched maximum dominates the known axis plane mass, and the
        # exact sandwich keeps the exponent near log2/log3
        assert 0.5 < p.ratio < 0.8
    with pytest.raises(ValueError):
        constants.alpha_estimate(sys, 3, n_range=(2,))
    with pytest.raises(ValueError):
        constants.alpha_estimate(sys, 1, n_range=(2,), search_budget=0)


def test_varpi_formulas():
    assert constants.varpi_of([2.0, 3.0], 2) == pytest.approx(min(4.0, 3.0))
    with pytest.raises(ValueError):
        constants.varpi_of([1.0], 2)
    for d in (1, 2, 3, 4):
        assert constants.cantor_varpi(d) == pytest.approx(d * LOG23, abs=1e-12)
    assert constants.cantor_axis_alpha(2) == pytest.approx(2 * LOG23)
    with pytest.raises(ValueError):
        constants.cantor_axis_alpha(0)


def test_certificate_is_reusable_data():
    cert = constants.cover_hyperplane([1, 1], 1, 3)
    clone = CoverCertificate(
        n=cert.n,
        dimension=cert.dimension,
        cells=cert.cells,
        bound_constant=cert.bound_constant,
    )
    assert clone.count == cert.count
    with pytest.raises(ValueError):
        cert.cells[0, 0] = 5  # frozen backing array
