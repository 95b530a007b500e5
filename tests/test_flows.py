import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khintchine_lab import flows, ifs
from khintchine_lab.flows import (
    diag_element,
    mult_flow,
    rotation_element,
    unipotent_element,
)


def random_rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_diag_time_values():
    assert flows.diag_time(1 / 3, 1) == pytest.approx(math.log(3) / 2, abs=1e-15)
    assert flows.diag_time(1 / 3, 2) == pytest.approx(2 * math.log(3) / 3, abs=1e-15)


def test_group_element_renormalizes_and_tracks_drift():
    g = flows.GroupElement(np.diag([2.0, 1.0]))
    assert np.linalg.det(g.matrix) == pytest.approx(1.0, abs=1e-12)
    assert g.log_det_drift == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        flows.GroupElement(np.diag([-1.0, 1.0]))


def test_flow_semigroups():
    # a_s a_t = a_{s+t} and g_u g_v = g_{uv}
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        s, t = rng.normal(size=2)
        left = (diag_element(s, d) @ diag_element(t, d)).matrix
        np.testing.assert_allclose(left, diag_element(s + t, d).matrix, atol=1e-10)
        u, v = np.exp(rng.normal(size=2))
        np.testing.assert_allclose(
            (mult_flow(u, d) @ mult_flow(v, d)).matrix,
            mult_flow(u * v, d).matrix,
            atol=1e-10,
        )


def test_unipotent_sign_convention():
    u = unipotent_element([1.0, 2.0])
    np.testing.assert_allclose(u.matrix[0], [1.0, -1.0, -2.0])
    inv = u.inverse().matrix
    np.testing.assert_allclose(inv[0], [1.0, 1.0, 2.0], atol=1e-14)


def test_diagonal_point_is_the_product_a_t_u_x():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for t in np.linspace(0.0, 15.0, 61).tolist():
            x = rng.random(d) * 4.0 - 2.0
            closed = flows.diagonal_point(x, t).matrix
            assert np.array_equal(closed, (diag_element(t, d) @ unipotent_element(x)).matrix)


def test_entries_past_1e300_raise():
    # e^700 is about 1e304: assemble_P refuses it, also when diagonal_point
    # calls it
    flows.diagonal_point([0.5], 690.0)
    with pytest.raises(flows.TrajectoryOverflowError):
        flows.diagonal_point([0.5], 700.0)
    with pytest.raises(flows.TrajectoryOverflowError):
        flows.assemble_P(700.0, np.eye(2), [0.0, 0.0])


def test_rho_unipotent_translates():
    u = unipotent_element([1.0, 2.0])
    out = flows.rho_apply(u, np.zeros(2))
    np.testing.assert_allclose(out, [-1.0, -2.0], atol=1e-14)


def test_rho_diag_scales_by_two():
    for d in (1, 2, 3):
        t = d * math.log(2.0) / (d + 1)
        beta = np.arange(1.0, d + 1.0)
        out = flows.rho_apply(diag_element(t, d), beta)
        np.testing.assert_allclose(out, 2.0 * beta, atol=1e-12)


def test_rho_is_a_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        p1 = flows.assemble_P(rng.normal() * 0.5, random_rotation(rng, d), rng.normal(size=d))
        p2 = flows.assemble_P(rng.normal() * 0.5, random_rotation(rng, d), rng.normal(size=d))
        beta = rng.normal(size=d)
        left = flows.rho_apply(p1 @ p2, beta)
        right = flows.rho_apply(p1, flows.rho_apply(p2, beta))
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_decompose_assemble_round_trip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        t = rng.normal() * 1.5
        orth = random_rotation(rng, d)
        alpha = rng.normal(size=d) * 3
        g = flows.assemble_P(t, orth, alpha)
        t2, o2, a2 = flows.decompose_P(g)
        worst = max(
            worst,
            abs(t - t2),
            float(np.max(np.abs(orth - o2))),
            float(np.max(np.abs(alpha - a2))),
        )
    assert worst <= 1e-10


def test_decompose_rejects_lower_triangular_junk():
    m = np.eye(3)
    m[2, 0] = 0.5
    with pytest.raises(ValueError):
        flows.decompose_P(flows.GroupElement(m))


def test_similarity_embedding_inverts_to_the_map():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for _ in range(30):
            phi = ifs.SimilarityMap(
                rng.uniform(0.2, 0.7), random_rotation(rng, d), rng.normal(size=d)
            )
            h = flows.similarity_to_group(phi)
            beta = rng.normal(size=d)
            np.testing.assert_allclose(
                flows.rho_apply(h.inverse(), beta), phi(beta), atol=1e-10
            )


def test_similarity_embedding_rejects_reflections():
    refl = np.array([[-1.0]])
    phi = ifs.SimilarityMap(0.5, refl, np.zeros(1))
    with pytest.raises(ValueError):
        flows.similarity_to_group(phi)


def test_walk_matrix_matches_composed_coding():
    # rho(h_{b_1^n}^{-1}) must equal phi_{s_1} o ... o phi_{s_n}
    rng = np.random.default_rng(17)
    for d in (1, 2):
        sys = ifs.cantor_product(d)
        steps = flows.walk_steps(sys)
        for _ in range(25):
            n = int(rng.integers(1, 41))
            word = tuple(int(s) for s in rng.integers(0, sys.alphabet_size, size=n))
            h = flows.walk_matrix(steps, word)
            beta = rng.normal(size=d)
            composed = beta
            for s in word[::-1]:
                composed = sys.maps[s](composed)
            np.testing.assert_allclose(
                flows.rho_apply(h.inverse(), beta), composed, atol=1e-8
            )


def test_walk_products_prefixes_agree_with_walk_matrix():
    sys = ifs.cantor_product(2)
    steps = flows.walk_steps(sys)
    word = (3, 0, 2, 1, 1, 0, 3, 2)
    for i, g in enumerate(flows.walk_products(steps, word), start=1):
        direct = flows.walk_matrix(steps, word[:i])
        np.testing.assert_allclose(g.matrix, direct.matrix, atol=1e-12)


def test_walk_matrix_and_products_check_symbols():
    # a float symbol is not truncated (0.7 walked as 0) and a bool is not
    # walked as 0 or 1; the empty word is the identity and has no prefixes
    sys = ifs.cantor_product(1)
    steps = flows.walk_steps(sys)
    for bad in ([0.7, 1.2], [True, False], [0, 2], [-1], np.array([1, 0], dtype=float)):
        with pytest.raises(ValueError, match="alphabet|integers"):
            flows.walk_matrix(steps, bad)
        with pytest.raises(ValueError, match="alphabet|integers"):
            list(flows.walk_products(steps, bad))
    for empty in ([], (), np.array([], dtype=np.uint8)):
        np.testing.assert_array_equal(flows.walk_matrix(steps, empty).matrix, np.eye(2))
        assert list(flows.walk_products(steps, empty)) == []
    narrow = np.array([1, 0, 1], dtype=np.uint8)
    np.testing.assert_array_equal(
        flows.walk_matrix(steps, narrow).matrix, flows.walk_matrix(steps, [1, 0, 1]).matrix
    )


def test_walk_diagonal_projection_is_linear_in_n():
    for d, t_step in ((1, math.log(3) / 2), (2, 2 * math.log(3) / 3)):
        sys = ifs.cantor_product(d)
        steps = flows.walk_steps(sys)
        rng = np.random.default_rng(d)
        word = rng.integers(0, sys.alphabet_size, size=100)
        for n, g in enumerate(flows.walk_products(steps, word), start=1):
            t, _, _ = flows.decompose_P(g)
            assert abs(t - n * t_step) <= 1e-10


def test_gt_is_time_change_of_diag():
    # g_u = a_t at t = -d log(u)/(d+1), i.e. diag(u^{-d/(d+1)}, u^{1/(d+1)} I_d)
    for d in (1, 2):
        u = 3.7
        expect = np.diag([u ** (-d / (d + 1))] + [u ** (1 / (d + 1))] * d)
        np.testing.assert_allclose(mult_flow(u, d).matrix, expect, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_shadowing_residual_small_at_random_seeds(seed):
    sys = ifs.cantor_product(1)
    res = flows.shadowing_identity_residual(sys, seed, n=12, tail=30)
    assert res <= 1e-12


def test_shadowing_residual_deep_words():
    for d in (1, 2):
        sys = ifs.cantor_product(d)
        res = flows.shadowing_identity_residual(sys, seed=99, n=50)
        assert res <= 1e-6


def test_rotation_element_requires_orthogonal():
    with pytest.raises(ValueError):
        rotation_element(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_rotation_element_embeds_in_corner():
    rng = np.random.default_rng(2)
    o = random_rotation(rng, 2)
    k = rotation_element(o).matrix
    np.testing.assert_allclose(k[1:, 1:], o)
    np.testing.assert_allclose(k[0], [1.0, 0.0, 0.0])
