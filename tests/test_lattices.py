import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from khintchine_lab import excursion, flows, ifs, lattices


def random_unimodular(rng, k, shears=6):
    """Integer matrix of determinant +-1 built from random elementary shears."""
    u = np.eye(k, dtype=np.int64)
    for _ in range(shears):
        i, j = rng.choice(k, size=2, replace=False)
        u[i] += int(rng.integers(-3, 4)) * u[j]
    return u


def test_reductions_keep_to_the_certified_dimension_range():
    # one rule for every reduction: shortest_of_basis and the walks both
    # go through lattices._reduce
    assert lattices.shortest_of_basis(np.eye(lattices.DIMENSION_LIMIT))[0] == 1.0
    with pytest.raises(ValueError, match="dimension 7 above certified range 6"):
        lattices.shortest_of_basis(np.eye(7))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dual_basis_at_time_zero_is_the_unipotent_start(d):
    # the walks along the flow start from dual_basis(diagonal_point(x, 0));
    # it is [[1, x], [0, I]] entry for entry (+0 and -0 compare equal)
    rng = np.random.default_rng(d)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -1.0, 1e300, -1e300]
    xs = [rng.random(d) for _ in range(200)]
    xs += [rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300, d) for _ in range(200)]
    xs += [rng.choice(special, d) for _ in range(200)]
    for x in xs:
        start = np.eye(d + 1)
        start[0, 1:] = x
        assert np.array_equal(lattices.dual_basis(flows.diagonal_point(x, 0.0)), start)
    x = np.full(d, 0.5)
    x[-1] = 1e301
    with pytest.raises(flows.TrajectoryOverflowError):
        lattices.dual_basis(flows.diagonal_point(x, 0.0))


def test_identity_lattice():
    delta, witness = lattices.shortest_of_basis(np.eye(3))
    assert delta == 1.0
    assert sorted(np.abs(witness)) == [0, 0, 1]


def test_known_point_half():
    # x = 1/2 at the balance time t* = log(2)/2: both active entries hit 2^{-1/2}
    t_star = math.log(2.0) / 2.0
    g = flows.diagonal_point(np.array([0.5]), t_star)
    delta, _ = lattices.shortest_vector(g)
    assert delta == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert lattices.height(g) == pytest.approx(t_star, abs=1e-12)


def test_time_zero_is_height_zero():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for _ in range(20):
            g = flows.diagonal_point(rng.random(d), 0.0)
            assert lattices.height(g) == pytest.approx(0.0, abs=1e-12)


def test_certified_matches_brute_force():
    # box bound 10 is exhaustive here: delta <= 1 (Minkowski), so minimizer
    # coefficients v @ a_t u_x are at most e^t (1 + |x|) + 1 < 10 for t <= 2
    rng = np.random.default_rng(100)
    for d in (1, 2, 3):
        for _ in range(60):
            t = rng.uniform(0.0, 2.0)
            g = flows.diagonal_point(rng.random(d), t)
            basis = lattices.dual_basis(g)
            d1, w1 = lattices.shortest_of_basis(basis)
            d2, w2 = lattices.brute_force_shortest(basis, coeff_bound=10)
            assert d1 == pytest.approx(d2, abs=1e-12)


def test_certified_witness_achieves_delta():
    rng = np.random.default_rng(101)
    for d in (1, 2, 3):
        for _ in range(30):
            g = flows.diagonal_point(rng.random(d), rng.uniform(0, 2))
            basis = lattices.dual_basis(g)
            delta, coeffs = lattices.shortest_of_basis(basis)
            achieved = float(np.max(np.abs(coeffs.astype(float) @ basis)))
            assert achieved == pytest.approx(delta, rel=1e-12)
            assert np.any(coeffs != 0)


def test_unimodular_invariance():
    rng = np.random.default_rng(55)
    for d in (1, 2, 3):
        for _ in range(40):
            g = flows.diagonal_point(rng.random(d), rng.uniform(0, 2))
            basis = lattices.dual_basis(g)
            d0, _ = lattices.shortest_of_basis(basis)
            u = random_unimodular(rng, d + 1)
            d1, _ = lattices.shortest_of_basis(u.astype(float) @ basis)
            assert d1 == pytest.approx(d0, abs=1e-12)


def test_lll_output_is_unimodular_transform():
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        for _ in range(25):
            basis = rng.normal(size=(k, k))
            if abs(np.linalg.det(basis)) < 1e-3:
                continue
            reduced, u = lattices.lll_reduce(basis)
            assert abs(round(np.linalg.det(u.astype(float)))) == 1
            np.testing.assert_allclose(reduced, u.astype(float) @ basis, atol=1e-9)


def test_witness_sign_canonical():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = flows.diagonal_point(rng.random(2), rng.uniform(0, 1.5))
        _, coeffs = lattices.shortest_of_basis(lattices.dual_basis(g))
        nz = coeffs[coeffs != 0]
        assert nz.size == 0 or nz[0] > 0


def test_brute_force_refuses_singular():
    with pytest.raises(ValueError):
        lattices.shortest_of_basis(np.zeros((2, 2)))


def test_window_membership():
    w = lattices.CompactWindow(0.5)
    g0 = flows.diagonal_point(np.array([0.5]), 0.0)
    assert lattices.in_window(g0, w)
    deep = flows.diagonal_point(np.array([0.5]), 3.0)  # near-rational cusp ride
    assert not lattices.in_window(deep, w)


def test_window_level_must_be_finite():
    # Y_L is compact only for finite L
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            lattices.CompactWindow(bad)


def test_rational_points_climb_the_cusp():
    # at x = p/q the vector (q, qx - p) collapses, so height grows like t
    g = flows.diagonal_point(np.array([0.25]), 4.0)
    delta, _ = lattices.shortest_vector(g)
    # shortest vector is (4 e^{-t}, 0): delta = 4 e^{-4}
    assert delta == pytest.approx(4.0 * math.exp(-4.0), rel=1e-10)


@given(st.integers(0, 2**32 - 1))
@example(245)  # minimizer (26, -5) lies outside a fixed |c| <= 25 box
@settings(max_examples=40, deadline=None)
def test_two_by_two_vs_enumeration(seed):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(2, 2)) * math.exp(rng.normal())
    assume(abs(np.linalg.det(basis)) >= 1e-6)
    try:
        d2, _ = lattices.brute_force_shortest(basis)
    except lattices.SearchBoxLimitError:
        reject()
    d1, _ = lattices.shortest_of_basis(basis)
    assert d1 == pytest.approx(d2, rel=1e-9)


def test_certified_vs_brute_force_at_k3_k4():
    # the reduction-plus-enumeration route against the certified-box oracle on
    # skewed lattices, where minimizers have large coefficients in the input basis
    rng = np.random.default_rng(404)
    checked = {3: 0, 4: 0}
    while min(checked.values()) < 25:
        k = int(rng.integers(3, 5))
        g = flows.diagonal_point(rng.random(k - 1), rng.uniform(0.0, 3.0))
        basis = random_unimodular(rng, k, shears=3).astype(float) @ lattices.dual_basis(g)
        try:
            brute, _ = lattices.brute_force_shortest(basis)
        except lattices.SearchBoxLimitError:
            continue
        delta, _ = lattices.shortest_of_basis(basis)
        assert delta == pytest.approx(brute, rel=1e-12)
        checked[k] += 1


# bases with several minimizers: the identity, a golden-ratio d = 1 basis and
# the shears of the identity by x in its first row
GOLDEN_BASIS = np.array([[0.78924, 0.55180], [0.0, 1.26705]])
TIED_BASES = [np.eye(k) for k in (2, 3, 4)] + [GOLDEN_BASIS] + [
    np.vstack([[1.0] + [x] * (k - 1), np.eye(k)[1:]]) for k in (2, 3, 4) for x in (0.5, 2.5, -1.5)
]


@pytest.mark.parametrize("basis", TIED_BASES, ids=lambda b: str(b.tolist()))
def test_tied_witness_is_the_oracle_witness(basis):
    # every k keeps the least sign-normalized minimizer, as the oracle does
    delta, witness = lattices.shortest_of_basis(basis)
    brute, brute_witness = lattices.brute_force_shortest(basis)
    assert delta == brute
    assert witness.tolist() == brute_witness.tolist()


def test_tie_rule_on_pinned_bases():
    assert lattices.shortest_of_basis(np.eye(2))[1].tolist() == [0, 1]
    assert lattices.shortest_of_basis(np.eye(4))[1].tolist() == [0, 0, 0, 1]
    assert lattices.shortest_of_basis(GOLDEN_BASIS)[1].tolist() == [1, -1]


def test_brute_force_refuses_boxes_past_the_limit(monkeypatch):
    # the default boxes of the golden-ratio d = 1 basis at t = 6 (over 10^10
    # points) and of a d = 3 basis at t = 4 (over 4 * 10^7): both are refused
    # before any grid is built
    def no_grid(bounds):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(lattices, "_brute_grid", no_grid)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for x, t in (([golden], 6.0), (np.random.default_rng(0).random(3), 4.0)):
        basis = lattices.dual_basis(flows.diagonal_point(x, t))
        with pytest.raises(lattices.SearchBoxLimitError, match="limit is 2000000"):
            lattices.brute_force_shortest(basis)


def _plain_sup(coeffs, rows) -> float:
    """Sup norm of coeffs @ rows in plain floats, accumulated from row k-1
    down to row 0 (the enumeration's level order)."""
    vec = [0.0] * len(rows)
    for c, row in zip(reversed(coeffs), reversed(rows)):
        vec = [a + c * y for a, y in zip(vec, row)]
    return max(map(abs, vec))


def _sign_normalized(c: tuple) -> tuple:
    lead = next(v for v in c if v)
    return c if lead > 0 else tuple(-v for v in c)


def _full_box_shortest(basis, bounds) -> tuple[float, tuple]:
    """The reference oracle: every nonzero vector of the full box, its sup
    norm by ``_plain_sup``, and of all minimizers the least sign-normalized."""
    rows = basis.tolist()
    box = itertools.product(*(range(-m, m + 1) for m in bounds))
    return min((_plain_sup(c, rows), _sign_normalized(c)) for c in box if any(c))


def test_brute_force_is_the_full_box_plain_float_loop():
    # the half-box fold equals the reference, delta and witness bit for bit,
    # on the tied bases and on certified boxes drawn like the k3/k4 sweep
    # (boxes of at most 20,000 points keep the reference loop quick)
    rng = np.random.default_rng(405)
    bases = list(TIED_BASES)
    drawn = {2: 0, 3: 0, 4: 0}
    while min(drawn.values()) < 20:
        k = int(rng.integers(2, 5))
        g = flows.diagonal_point(rng.random(k - 1), rng.uniform(0.0, 3.0))
        basis = random_unimodular(rng, k, shears=3).astype(float) @ lattices.dual_basis(g)
        if math.prod(2 * m + 1 for m in lattices.certified_box(basis)) <= 20_000:
            bases.append(basis)
            drawn[k] += 1
    for basis in bases:
        delta, witness = lattices.brute_force_shortest(basis)
        reference = _full_box_shortest(basis, lattices.certified_box(basis))
        assert (delta, tuple(witness.tolist())) == reference


def test_brute_force_refuses_empty_boxes_and_non_finite_bases():
    with pytest.raises(ValueError, match="no nonzero point"):
        lattices.brute_force_shortest(np.eye(2), coeff_bound=0)
    with pytest.raises(ValueError, match="non-finite"):
        lattices.brute_force_shortest(np.array([[1.0, math.nan], [0.0, 1.0]]), coeff_bound=3)


def test_enumerated_sup_is_the_plain_float_sup():
    # Delta is the plain-float sup norm of every returned coefficient vector.
    # At the pinned point a BLAS dot product rounds that sup norm one ulp up
    # (0.7233347073165527); the rest are drawn like the sweep that found it.
    rng = np.random.default_rng(11)
    points = [([0.03163956363423126, 0.22967587053572702, 0.5180602827074992], 1.422495510269684)]
    points += [(rng.random(k - 1), rng.uniform(0.0, 8.0)) for k in (3, 4) for _ in range(50)]
    for x, t in points:
        reduced, _ = lattices.lll_reduce(lattices.dual_basis(flows.diagonal_point(x, t)))
        delta, coeffs = lattices._enumerate_sup(reduced)
        rows = reduced.tolist()
        assert coeffs and all(_plain_sup(c, rows) == delta for c in coeffs)
    pinned = lattices.dual_basis(flows.diagonal_point(points[0][0], points[0][1]))
    assert lattices.shortest_of_basis(pinned)[0] == 0.7233347073165526


def _k3_route(basis, general: bool):
    """lll_reduce then _enumerate_sup of ``basis``, on the k = 3 kernel or
    with the general list loop in its place: reduced rows, U, mu, norms,
    Delta and the coefficient list, or the error raised."""
    with pytest.MonkeyPatch.context() as mp:
        if general:
            mp.setattr(lattices, "_lll_3", lattices._lll_loop)
            mp.setattr(lattices, "_search_3", lattices._search_loop)
        try:
            reduced, u = lattices.lll_reduce(basis)
            _, mu, norms = lattices._last_reduced
            delta, coeffs = lattices._enumerate_sup(reduced)
        except (ValueError, ArithmeticError, lattices.ReductionGuardError) as exc:
            return repr(exc)
    # repr tells every float apart, -0.0 from 0.0 included
    return repr((reduced.tolist(), u.tolist(), mu, norms, delta, coeffs))


def _k3_bases(rng) -> list:
    """Skewed d = 2 diagonal-flow bases under random unimodular shears,
    half-integer bases (round(mu) = 1/2 ties), bases near the singular
    tolerance and the float range or with a non-finite entry (both paths
    must raise the same error) and the tied k = 3 bases."""
    bases = []
    for _ in range(2000):
        g = flows.diagonal_point(rng.random(2), rng.uniform(0.0, 8.0))
        shear = random_unimodular(rng, 3, shears=int(rng.integers(0, 7)))
        bases.append(shear.astype(float) @ lattices.dual_basis(g))
    while len(bases) < 2600:
        basis = rng.integers(-5, 6, size=(3, 3)) / 2.0
        if abs(np.linalg.det(basis)) > 0.1:
            bases.append(basis)
    for _ in range(400):
        # unit upper triangle: the first mu are the half-integers themselves
        basis = np.eye(3)
        basis[np.triu_indices(3, 1)] = rng.integers(-3, 3, size=3) + 0.5
        shear = random_unimodular(rng, 3, shears=int(rng.integers(0, 3)))
        bases.append(shear.astype(float) @ basis[::-1])
    for scale in (1e-130, 1e-125, 1e-120, 1e150, 1e160, 1e200):
        bases += [rng.normal(size=(3, 3)) * scale for _ in range(40)]
    for bad in (math.nan, math.inf, -math.inf):
        for _ in range(5):
            basis = rng.normal(size=(3, 3))
            basis[tuple(rng.integers(0, 3, size=2))] = bad
            bases.append(basis)
    return bases + [b for b in TIED_BASES if len(b) == 3]


def test_k3_kernel_is_the_general_loop_bit_for_bit():
    # the unrolled reduction and the nested-loop search make the general
    # loop's decisions on the same floats, in the same order
    for basis in _k3_bases(np.random.default_rng(2023)):
        assert _k3_route(basis, False) == _k3_route(basis, True)


def test_lll_guard_raises(monkeypatch):
    # k = 3 runs the unrolled kernel, k = 4 the general loop
    bases = [np.array([[1.0, 0.0, 0.0], [7.3, 1.0, 0.0], [2.1, 5.7, 1.0]])]
    bases.append(np.array([[1.0, 0, 0, 0], [7.3, 1, 0, 0], [2.1, 5.7, 1, 0], [-4.4, 0.9, 0, 1]]))
    for basis in bases:
        lattices.lll_reduce(basis)
    monkeypatch.setattr(lattices, "LLL_ITERATION_LIMIT", 1)
    for basis in bases:
        with pytest.raises(lattices.ReductionGuardError):
            lattices.lll_reduce(basis)


def test_singular_3x3_raises():
    # row 1 is twice row 0: b*_1 is a numerically zero vector
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="numerically singular"):
        lattices.shortest_of_basis(singular)
    # a walk that steps onto a singular basis: a zero column
    walk = lattices._walk(np.eye(3), [[1.0, 0.0, 1.0]])
    next(walk)
    with pytest.raises(ValueError, match="numerically singular"):
        next(walk)


def _ndarray_walk(basis, factors, times=np.multiply):
    """Reference: the walk before it carried its rows as lists.  Every step
    is an ndarray, scaled by ``np.multiply`` or multiplied by ``_times``, and
    reduced by ``_reduce`` (through ``lll_reduce`` above 2x2)."""
    reduced = lattices._reduce(basis)
    yield reduced
    for factor in factors:
        reduced = lattices._reduce(times(np.asarray(reduced[0]).reshape(basis.shape), factor))
        yield reduced


def _yields(walk) -> list:
    # repr tells every float apart, -0.0 from 0.0 included, and shows a
    # numpy scalar where a Python number belongs
    return [repr(([list(r) for r in rows], [list(r) for r in u], delta, coeffs))
            for rows, u, delta, coeffs in walk]


def _rotation_system(rng, d):
    """Ratio 1/3 maps with dense rotations (det +1), so every entry of a
    step matrix is a sum of d + 1 nonzero products."""
    maps = []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        maps.append(ifs.SimilarityMap(1 / 3, q, rng.random(d)))
    return ifs.IfsSystem(maps=tuple(maps), weights=np.full(3, 1 / 3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_list_walk_is_the_ndarray_walk(d):
    # every yield of the walk (rows, U, Delta and the minimizers) equals the
    # ndarray walk's bit for bit, along the flow and under step matrices,
    # from starts with exact half-integer ties (round(0.5) = 0)
    rng = np.random.default_rng(40 + d)
    starts = [np.full(d, 0.5), np.resize([2.5, -1.5, 0.5], d), rng.random(d)]
    for x in starts:
        for h, t in ((0.25, 0.0), (0.05, 0.0), (0.4, 3.0)):
            diagonal = [math.exp(-h)] + [math.exp(h / d)] * d
            ref = _ndarray_walk(lattices.dual_basis(flows.diagonal_point(x, t)),
                                itertools.repeat(np.array(diagonal), 150))
            assert _yields(lattices._flow_walk(x, t, h, 150)) == _yields(ref)
    for sys in (ifs.cantor_product(d), _rotation_system(rng, d)):
        steps = excursion._step_inverses(sys)
        columns = [m.T.tolist() for m in steps]
        words = rng.integers(0, sys.alphabet_size, size=(len(starts), 150))
        for x, word in zip(starts, words.tolist()):
            basis = np.eye(d + 1)
            basis[0, 1:] = x
            ref = list(_ndarray_walk(basis, [steps[s] for s in word], lattices._times))
            walk = lattices._walk(basis, [columns[s] for s in word], lattices._product)
            assert _yields(walk) == _yields(ref)
            if d >= 2:  # the rows of walk_heights walk one by one
                heights = [-math.log(delta) for _, _, delta, _ in ref[1:]]
                assert excursion.walk_heights(sys, word, start=x).tolist() == heights


def test_lagrange_guard_raises(monkeypatch):
    # consecutive Fibonacci rows take many Lagrange steps
    basis = np.array([[89.0, 1.0], [144.0, 0.5]])
    lattices.shortest_of_basis(basis)
    monkeypatch.setattr(lattices, "LAGRANGE_ITERATION_LIMIT", 2)
    with pytest.raises(lattices.ReductionGuardError):
        lattices.shortest_of_basis(basis)
