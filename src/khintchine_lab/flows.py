"""Similarity maps as elements of SL(d+1, R) and trajectories built from them.

The ambient group acts on row vectors beta through the parabolic subgroup
P = A K U:

    a_t     = diag(e^t, e^{-t/d} I_d)         rho(a_t) beta = e^{t(d+1)/d} beta
    u_alpha = [[1, -alpha], [0, I_d]]         rho(u_alpha) beta = beta - alpha
    k_O     = blockdiag(1, O)                 rho(k_O) beta = beta O^{-1}

A similarity phi(x) = kappa x O + y corresponds to h = a_t k_O u_y with
t = -d log(kappa)/(d+1) > 0, so that rho(h^{-1}) = phi.  Words act by the
ordered product h_{s_n} ... h_{s_1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import mpmath
import numpy as np

from .ifs import IfsSystem, SimilarityMap, _freeze, sample_words

DET_RENORM_TOL = 1e-11
P_SHAPE_TOL = 1e-10
ENTRY_OVERFLOW = 1e300


class TrajectoryOverflowError(OverflowError):
    """Raised when accumulated matrix entries leave the float range."""


@dataclass(frozen=True)
class GroupElement:
    """A (d+1)x(d+1) real matrix of determinant one.

    Construction renormalizes by det^{-1/(d+1)} when the determinant drifts
    beyond ``DET_RENORM_TOL``; the accumulated log-determinant correction is
    kept in ``log_det_drift`` as a rounding diagnostic.
    """

    matrix: np.ndarray
    log_det_drift: float = 0.0

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("matrix must be square of size >= 2")
        det = float(np.linalg.det(m))
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"determinant must be positive, got {det!r}")
        drift = float(self.log_det_drift)
        if abs(det - 1.0) > DET_RENORM_TOL:
            m = m * det ** (-1.0 / m.shape[0])
            drift += math.log(det)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "log_det_drift", drift)

    @property
    def dimension(self) -> int:
        """d, the dimension of the space the group acts on (matrix is d+1)."""
        return self.matrix.shape[0] - 1

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        prod = self.matrix @ other.matrix
        if np.max(np.abs(prod)) > ENTRY_OVERFLOW:
            raise TrajectoryOverflowError("matrix entries exceed 1e300")
        return GroupElement(prod, self.log_det_drift + other.log_det_drift)

    def inverse(self) -> "GroupElement":
        """Inverse, using the block-triangular structure when present.

        Generic matrix inversion pollutes the exact-zero lower-left block of
        P-elements with O(eps * e^{2t}) garbage, which later poisons shortest
        vector computations; the structured path keeps those zeros exact.
        """
        m = self.matrix
        if np.all(m[1:, 0] == 0.0):
            a = m[0, 0]
            dinv = np.linalg.inv(m[1:, 1:])
            out = np.zeros_like(m)
            out[0, 0] = 1.0 / a
            out[0, 1:] = -(m[0, 1:] @ dinv) / a
            out[1:, 1:] = dinv
            return GroupElement(out, -self.log_det_drift)
        return GroupElement(np.linalg.inv(m), -self.log_det_drift)


def identity(d: int) -> GroupElement:
    return GroupElement(np.eye(d + 1))


def diag_element(t: float, d: int) -> GroupElement:
    """a_t = diag(e^t, e^{-t/d} I_d)."""
    entries = np.full(d + 1, math.exp(-t / d))
    entries[0] = math.exp(t)
    return GroupElement(np.diag(entries))


def unipotent_element(alpha) -> GroupElement:
    """u_alpha with first row (1, -alpha)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = alpha.size
    m = np.eye(d + 1)
    m[0, 1:] = -alpha
    return GroupElement(m)


def rotation_element(orth) -> GroupElement:
    """blockdiag(1, O); O must be special orthogonal to stay in SL."""
    orth = np.atleast_2d(np.asarray(orth, dtype=float))
    d = orth.shape[0]
    if np.max(np.abs(orth @ orth.T - np.eye(d))) > 1e-12:
        raise ValueError("rotation block must be orthogonal")
    m = np.eye(d + 1)
    m[1:, 1:] = orth
    return GroupElement(m)


def mult_flow(u: float, d: int) -> GroupElement:
    """g_u = a_{-d log(u)/(d+1)}; satisfies g_u g_v = g_{uv}."""
    if u <= 0:
        raise ValueError("multiplicative time must be positive")
    return diag_element(-d * math.log(u) / (d + 1), d)


def diag_time(kappa: float, d: int) -> float:
    """Per-symbol diagonal time t = -d log(kappa)/(d+1) (> 0 for kappa < 1)."""
    return -d * math.log(kappa) / (d + 1)


def diagonal_point(x, t: float) -> GroupElement:
    """a_t u_x, the diagonal-flow orbit of the point x: ``assemble_P(t, I, x)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return assemble_P(t, np.eye(x.size), x)


def rho_apply(p: GroupElement, beta) -> np.ndarray:
    """Similarity action of a P-element on the row vector beta."""
    t, orth, alpha = decompose_P(p)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    return math.exp(t * (p.dimension + 1) / p.dimension) * ((beta - alpha) @ orth.T)


def decompose_P(g: GroupElement) -> tuple[float, np.ndarray, np.ndarray]:
    """Split g = a_t k_O u_alpha; raises if g is not in P.

    t is the log of the (0,0) entry, alpha = -g[0,1:]/g[0,0], and O is the
    lower-right block with the diagonal part divided out.
    """
    m = g.matrix
    d = g.dimension
    scale = np.max(np.abs(m))
    if np.max(np.abs(m[1:, 0])) > P_SHAPE_TOL * scale:
        raise ValueError("element is not in P: nonzero lower-left block")
    if m[0, 0] <= 0:
        raise ValueError("element is not in P: nonpositive leading entry")
    t = math.log(m[0, 0])
    alpha = -m[0, 1:] / m[0, 0]
    orth = m[1:, 1:] * math.exp(t / d)
    if np.max(np.abs(orth @ orth.T - np.eye(d))) > P_SHAPE_TOL:
        raise ValueError("element is not in P: rotation block not orthogonal")
    return t, orth, alpha


def assemble_P(t: float, orth, alpha) -> GroupElement:
    """a_t k_O u_alpha as one matrix (inverse of decompose_P)."""
    orth = np.atleast_2d(np.asarray(orth, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = orth.shape[0]
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = math.exp(t)
    m[0, 1:] = -m[0, 0] * alpha
    m[1:, 1:] = math.exp(-t / d) * orth
    if np.max(np.abs(m)) > ENTRY_OVERFLOW:
        raise TrajectoryOverflowError("matrix entries exceed 1e300")
    return GroupElement(m)


def similarity_to_group(phi: SimilarityMap) -> GroupElement:
    """The element h = a_t k_O u_y with rho_apply(h.inverse(), beta) = phi(beta).

    Requires det(O) = +1: reflections leave SL(d+1) and have no unimodular
    representative under this embedding.
    """
    det = float(np.linalg.det(phi.rotation))
    if det < 0:
        raise ValueError("similarity rotation must have determinant +1")
    t = diag_time(phi.ratio, phi.dimension)
    return assemble_P(t, phi.rotation, phi.translation)


def walk_steps(sys: IfsSystem) -> tuple[GroupElement, ...]:
    """The per-symbol elements h_s, indexed by symbol."""
    return tuple(similarity_to_group(m) for m in sys.maps)


def _check_word(steps: Sequence[GroupElement], word) -> np.ndarray:
    w = np.atleast_1d(np.asarray(word, dtype=int))
    if w.size and (w.min() < 0 or w.max() >= len(steps)):
        raise ValueError("word contains symbols outside the alphabet")
    return w


def walk_matrix(steps: Sequence[GroupElement], word) -> GroupElement:
    """Ordered product h_{s_n} ... h_{s_1} for word (s_1, ..., s_n)."""
    w = _check_word(steps, word)
    if w.size == 0:
        return identity(steps[0].dimension)
    out = steps[w[0]]
    for s in w[1:]:
        out = steps[s] @ out
    return out


def walk_products(steps: Sequence[GroupElement], word) -> Iterator[GroupElement]:
    """Yields the prefix products h_{s_1}, h_{s_2}h_{s_1}, ... lazily."""
    w = _check_word(steps, word)
    out = None
    for s in w:
        out = steps[s] if out is None else steps[s] @ out
        yield out


# ---------------------------------------------------------------------------
# exact product decomposition along coding words

def shadowing_identity_residual(sys: IfsSystem, seed: int, n: int, tail: int = 40) -> float:
    """Max entrywise residual of h_{b_1^n} = u_{-beta_n} a_{t_n} k_n u_{pi(b)}.

    The identity is algebraically exact once beta_n = pi(T^n b) and pi(b) are
    truncated consistently (both from the same length n + tail draw), so the
    residual measures only whether the group translation is wired correctly.
    Computed in mpmath at 60 digits: in doubles the e^{t_n}-sized entries
    wash out the identity long before n = 50.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    word = sample_words(sys, n + tail, 1, rng)[0]
    d = sys.dimension
    with mpmath.workdps(60):
        kappa = mpmath.mpf(sys.kappa)
        t_step = -d * mpmath.log(kappa) / (d + 1)
        rots = [mpmath.matrix([[mpmath.mpf(v) for v in row] for row in m.rotation]) for m in sys.maps]
        trans = [mpmath.matrix([[mpmath.mpf(v) for v in m.translation]]) for m in sys.maps]

        def step_matrix(s):
            h = mpmath.zeros(d + 1, d + 1)
            et = mpmath.e**t_step
            emt = mpmath.e ** (-t_step / d)
            h[0, 0] = et
            for j in range(d):
                h[0, j + 1] = -et * trans[s][0, j]
                for i in range(d):
                    h[i + 1, j + 1] = emt * rots[s][i, j]
            return h

        def coding(sub):
            base = sys.base_point()
            p = mpmath.matrix([[mpmath.mpf(v) for v in base]])
            for s in sub[::-1]:
                p = kappa * (p * rots[s]) + trans[s]
            return p

        elems = [step_matrix(s) for s in range(sys.alphabet_size)]
        prod = mpmath.eye(d + 1)
        for s in word[:n]:
            prod = elems[s] * prod

        pi_full = coding(word)
        beta = coding(word[n:])

        def u_of(row, sign):
            u = mpmath.eye(d + 1)
            for j in range(d):
                u[0, j + 1] = sign * -row[0, j]
            return u

        mid = mpmath.zeros(d + 1, d + 1)
        mid[0, 0] = prod[0, 0]
        for i in range(d):
            for j in range(d):
                mid[i + 1, j + 1] = prod[i + 1, j + 1]
        rhs = u_of(beta, -1) * mid * u_of(pi_full, 1)
        residual = max(
            abs(prod[i, j] - rhs[i, j]) for i in range(d + 1) for j in range(d + 1)
        )
        return float(residual)
