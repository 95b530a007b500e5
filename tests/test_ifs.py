import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khintchine_lab import ifs


def random_similarity(rng, d, ratio=None):
    kappa = ratio if ratio is not None else rng.uniform(0.2, 0.8)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return ifs.SimilarityMap(kappa, q, rng.normal(size=d))


def test_similarity_applies_row_convention():
    # phi(x) = kappa * x @ O + y, checked against explicit arithmetic
    o = np.array([[0.0, 1.0], [-1.0, 0.0]])
    phi = ifs.SimilarityMap(0.5, o, np.array([1.0, 2.0]))
    x = np.array([2.0, 3.0])
    expect = 0.5 * x @ o + np.array([1.0, 2.0])
    np.testing.assert_allclose(phi(x), expect, atol=0, rtol=0)


def test_compose_is_first_after_second():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        f = random_similarity(rng, d)
        g = random_similarity(rng, d)
        h = ifs.compose(f, g)
        for _ in range(20):
            x = rng.normal(size=d)
            np.testing.assert_allclose(h(x), f(g(x)), atol=1e-12)
        assert h.ratio == pytest.approx(f.ratio * g.ratio)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_compose_associative(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    f, g, h = (random_similarity(rng, d) for _ in range(3))
    left = ifs.compose(ifs.compose(f, g), h)
    right = ifs.compose(f, ifs.compose(g, h))
    x = rng.normal(size=d)
    np.testing.assert_allclose(left(x), right(x), atol=1e-10)


def test_fixed_point_is_fixed():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        phi = random_similarity(rng, d)
        p = phi.fixed_point()
        np.testing.assert_allclose(phi(p), p, atol=1e-10)


def test_cantor_product_shape():
    for d in (1, 2, 3):
        sys = ifs.cantor_product(d)
        assert sys.dimension == d
        assert sys.kappa == pytest.approx(1.0 / 3.0)
        assert sys.alphabet_size == 2**d
        np.testing.assert_allclose(sys.weights, np.full(2**d, 2.0**-d))
        # translations enumerate {0, 2/3}^d
        trans = sorted(tuple(m.translation) for m in sys.maps)
        expect = sorted(
            tuple(np.array(v) * (2.0 / 3.0)) for v in np.ndindex(*(2,) * d)
        )
        np.testing.assert_allclose(trans, expect, atol=1e-15)


def base3_oracle(word):
    # digits 2*s_k at positions k+1, summed directly
    return sum(2 * s * 3.0 ** -(k + 1) for k, s in enumerate(word))


def test_coding_point_matches_digit_expansion():
    sys = ifs.cantor_product(1)
    word = (1, 0) * 40
    point, bound = ifs.coding_point(sys, word)
    # 0.75 is the coding point of (1, 0) repeated forever
    assert abs(point[0] - 0.75) <= bound < 1e-15
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = tuple(rng.integers(0, 2, size=60))
        p, b = ifs.coding_point(sys, w)
        assert p[0] == pytest.approx(base3_oracle(w), abs=1e-13 + b)


def test_coding_point_d2_componentwise():
    sys = ifs.cantor_product(2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = tuple(int(s) for s in rng.integers(0, 4, size=60))
        p, _ = ifs.coding_point(sys, w)
        # symbol s encodes digit pair (s % 2, s // 2) scaled by translations
        trans = np.array([sys.maps[s].translation for s in w]) * 1.5  # {0,1}
        for axis in range(2):
            digits = trans[:, axis].round().astype(int)
            expect = sum(2 * dig * 3.0 ** -(k + 1) for k, dig in enumerate(digits))
            assert p[axis] == pytest.approx(expect, abs=1e-13)


def test_points_of_words_matches_scalar_coding():
    # the Horner step of identity-rotation systems makes the same float
    # operations as applying the maps one by one
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        sys = ifs.cantor_product(d)
        words = ifs.sample_words(sys, 12, 40, rng)
        pts = ifs.points_of_words(sys, words)
        for row, word in zip(pts, words):
            scalar, _ = ifs.coding_point(sys, tuple(word))
            np.testing.assert_array_equal(row, scalar)


@pytest.mark.parametrize(
    "rotation",
    [
        [[0.0, -1.0], [1.0, 0.0]],  # quarter turn
        [[0.6, 0.8], [-0.8, 0.6]],  # generic rotation
        [[1.0, 0.0], [0.0, -1.0]],  # reflection
    ],
)
def test_points_of_words_general_rotations(rotation):
    rot = np.array(rotation)
    maps = (
        ifs.SimilarityMap(0.4, np.eye(2), np.array([0.0, 0.0])),
        ifs.SimilarityMap(0.4, rot, np.array([0.6, 0.2])),
    )
    sys = ifs.IfsSystem(maps=maps, weights=np.array([0.3, 0.7]))
    rng = np.random.default_rng(17)
    words = ifs.sample_words(sys, 15, 50, rng)
    pts = ifs.points_of_words(sys, words)
    for row, word in zip(pts, words):
        scalar, _ = ifs.coding_point(sys, tuple(word))
        np.testing.assert_allclose(row, scalar, rtol=0, atol=1e-12)


def test_points_of_words_keeps_each_map_ratio():
    # ratios within COMMON_RATIO_TOL of each other are one system, but each
    # map still contracts by its own ratio
    maps = (
        ifs.SimilarityMap(0.4, np.eye(2), np.array([0.0, 0.0])),
        ifs.SimilarityMap(0.4 + 4e-15, np.eye(2), np.array([0.6, 0.2])),
    )
    sys = ifs.IfsSystem(maps=maps, weights=np.array([0.5, 0.5]))
    words = ifs.sample_words(sys, 30, 50, np.random.default_rng(23))
    pts = ifs.points_of_words(sys, words)
    for row, word in zip(pts, words):
        scalar, _ = ifs.coding_point(sys, tuple(word))
        np.testing.assert_array_equal(row, scalar)


def test_sample_fractal_deterministic_and_chunk_invariant():
    sys = ifs.cantor_product(1)
    a = ifs.sample_fractal(sys, 300, depth=40, seed=123)
    b = ifs.sample_fractal(sys, 300, depth=40, seed=123)
    np.testing.assert_array_equal(a, b)
    c = ifs.sample_fractal(sys, 100, depth=40, seed=123)
    np.testing.assert_array_equal(a[:100], c)


def test_sampled_points_lie_on_attractor():
    # every sample must have only {0,2} ternary digits down to the tested depth
    sys = ifs.cantor_product(1)
    pts = ifs.sample_fractal(sys, 200, seed=2).ravel()
    for x in pts:
        v = x
        for _ in range(25):
            v *= 3.0
            digit = int(math.floor(v + 1e-9))
            assert digit in (0, 2), x
            v -= digit


def test_diameter_estimate_cantor():
    # upper estimate, slightly above the true euclidean diameter
    d1 = ifs.diameter_estimate(ifs.cantor_product(1))
    assert 1.0 <= d1 <= 1.01
    d2 = ifs.diameter_estimate(ifs.cantor_product(2))
    assert math.sqrt(2.0) <= d2 <= math.sqrt(2.0) + 0.01


def test_system_rejects_mixed_ratios():
    maps = (
        ifs.SimilarityMap(0.3, np.eye(1), np.zeros(1)),
        ifs.SimilarityMap(0.5, np.eye(1), np.array([0.5])),
    )
    with pytest.raises(ValueError, match="one contraction ratio"):
        ifs.IfsSystem(maps=maps, weights=np.array([0.5, 0.5]))


def test_json_round_trip(tmp_path):
    sys = ifs.cantor_product(2)
    doc = ifs.system_to_json(sys)
    back = ifs.system_from_json(doc)
    assert back.dimension == sys.dimension
    assert back.kappa == pytest.approx(sys.kappa)
    for m1, m2 in zip(sys.maps, back.maps):
        np.testing.assert_allclose(m1.translation, m2.translation)
        np.testing.assert_allclose(m1.rotation, m2.rotation)
    path = tmp_path / "sys.json"
    ifs.save_system(sys, path)
    loaded = ifs.load_system(path)
    assert loaded.alphabet_size == sys.alphabet_size


def test_json_rejects_unknown_keys():
    doc = ifs.system_to_json(ifs.cantor_product(1))
    doc["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        ifs.system_from_json(doc)


def test_json_rejects_missing_keys():
    doc = ifs.system_to_json(ifs.cantor_product(1))
    del doc["maps"]
    with pytest.raises(ValueError):
        ifs.system_from_json(doc)


def test_weights_must_sum_to_one():
    maps = ifs.cantor_product(1).maps
    with pytest.raises(ValueError):
        ifs.IfsSystem(maps=maps, weights=np.array([0.7, 0.7]))


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5])
def test_weights_must_be_strictly_positive(bad):
    # a nan weight fails "w <= 0" and the sum test alike
    maps = ifs.cantor_product(1).maps
    with pytest.raises(ValueError, match="strictly positive"):
        ifs.IfsSystem(maps=maps, weights=np.array([bad, 0.5]))


@pytest.mark.parametrize(
    "weights",
    [[1.0], [0.5, 0.5], [0.25] * 4, [0.9, 0.05, 0.03, 0.02], [0.1, 0.2, 0.3, 0.4], [1 / 3] * 3],
    ids=str,
)
def test_sample_words_are_the_choice_words(monkeypatch, weights):
    # the words of Generator.choice from the same uniforms, the generator
    # left where choice leaves it, and one letter of every word contiguous
    maps = tuple(ifs.SimilarityMap(1 / 3, np.eye(1), np.array([s / 3])) for s in range(len(weights)))
    sys = ifs.IfsSystem(maps=maps, weights=np.array(weights))

    def check(count, depth, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        words = ifs.sample_words(sys, depth, count, ours)
        expect = ref.choice(sys.alphabet_size, size=(count, depth), p=sys.weights)
        assert words.dtype == expect.dtype and np.array_equal(words, expect)
        assert words.flags.f_contiguous
        assert ours.random() == ref.random()

    check(3000, 66, 0)  # 496 rows a block, and 3000 is no multiple of it
    monkeypatch.setattr(ifs, "_WORD_BLOCK", 60)
    # one row; 6 rows a block, 23 rows; a row longer than a block
    for seed, (count, depth) in enumerate([(1, 5), (23, 9), (4, 200), (60, 1)]):
        check(count, depth, seed)
