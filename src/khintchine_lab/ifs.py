"""Contracting similarity systems and Bernoulli sampling on their attractors.

A system is a finite list of maps ``phi_s(x) = ratio * x @ rotation_s +
translation_s`` acting on row vectors, all sharing one contraction ratio,
together with a positive probability weight per map.  Points of the attractor
are addressed by symbol words: the coding point of ``(b_1, ..., b_n)`` is
``phi_{b_1} o ... o phi_{b_n}`` applied to a base point, which converges
geometrically in the word length.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

ORTHOGONALITY_TOL = 1e-12
COMMON_RATIO_TOL = 1e-14
WEIGHT_SUM_TOL = 1e-12

# Depth at which 52 bits of mantissa are exhausted twice over; used as the
# default sampling depth so that truncation sits far below double precision.
_SAMPLE_DEPTH_BITS = 52


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimilarityMap:
    """One contraction ``x -> ratio * (x @ rotation) + translation``.

    ``rotation`` must be orthogonal (reflections included); ``ratio`` must lie
    strictly between 0 and 1.
    """

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.atleast_2d(np.asarray(self.rotation, dtype=float))
        trans = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError("rotation must be a square matrix")
        d = rot.shape[0]
        if trans.shape != (d,):
            raise ValueError(f"translation must have length {d}, got {trans.shape}")
        gram_err = np.max(np.abs(rot @ rot.T - np.eye(d)))
        if gram_err > ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (|R R^T - I| = {gram_err:.3e})")
        ratio = float(self.ratio)
        if not (0.0 < ratio < 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "translation", _freeze(trans))

    @property
    def dimension(self) -> int:
        return self.rotation.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.ratio * (x @ self.rotation) + self.translation

    def fixed_point(self) -> np.ndarray:
        """Unique solution of ``p = phi(p)``."""
        d = self.dimension
        a = np.eye(d) - self.ratio * self.rotation
        return np.linalg.solve(a.T, self.translation)


def compose(first: SimilarityMap, second: SimilarityMap) -> SimilarityMap:
    """Composite map ``x -> first(second(x))``; ratios multiply."""
    if first.dimension != second.dimension:
        raise ValueError("cannot compose maps of different dimensions")
    ratio = first.ratio * second.ratio
    rotation = second.rotation @ first.rotation
    translation = first.ratio * (second.translation @ first.rotation) + first.translation
    return SimilarityMap(ratio=ratio, rotation=rotation, translation=translation)


@dataclass(frozen=True)
class IfsSystem:
    """Finite similarity system with a common ratio and Bernoulli weights."""

    maps: tuple[SimilarityMap, ...]
    weights: np.ndarray

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("system needs at least one map")
        d = maps[0].dimension
        for m in maps:
            if m.dimension != d:
                raise ValueError("all maps must share one dimension")
        kappa = maps[0].ratio
        for m in maps:
            if abs(m.ratio - kappa) > COMMON_RATIO_TOL:
                raise ValueError(
                    f"maps must share one contraction ratio: {m.ratio} vs {kappa}"
                )
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (len(maps),):
            raise ValueError("need exactly one weight per map")
        # not any(w <= 0), which a nan weight passes
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension

    @property
    def kappa(self) -> float:
        return self.maps[0].ratio

    @property
    def alphabet_size(self) -> int:
        return len(self.maps)

    def default_varpi(self) -> float:
        """Similarity dimension, capped at d; exact for Cantor powers."""
        return min(float(self.dimension), math.log(self.alphabet_size) / -math.log(self.kappa))

    def base_point(self) -> np.ndarray:
        """Default coding base: the fixed point of the first map."""
        return self.maps[0].fixed_point()

    def default_depth(self) -> int:
        """Word length at which truncation error drops below double precision."""
        return 2 * math.ceil(_SAMPLE_DEPTH_BITS * math.log(2.0) / abs(math.log(self.kappa)))


def cantor_product(d: int) -> IfsSystem:
    """d-fold product of the middle-thirds system: maps ``(x + v)/3`` for
    ``v`` ranging over ``{0, 2}^d``, uniform weights ``2^-d``."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d)
    maps = []
    for v in itertools.product((0.0, 2.0), repeat=d):
        maps.append(
            SimilarityMap(ratio=1.0 / 3.0, rotation=eye, translation=np.asarray(v) / 3.0)
        )
    weights = np.full(len(maps), 1.0 / len(maps))
    return IfsSystem(maps=tuple(maps), weights=weights)


def _symbols(alphabet_size: int, words) -> np.ndarray:
    """``words`` as an integer array of symbols in [0, alphabet_size), not
    copied when it is one already; a float, bool or out-of-range symbol
    raises ``ValueError`` rather than being truncated or wrapped onto some
    map.  An empty array has no symbol to check and passes whatever its
    dtype (``np.asarray([])`` is float)."""
    w = np.asarray(words)
    if w.size and w.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got dtype {w.dtype}")
    if w.size and (w.min() < 0 or w.max() >= alphabet_size):
        raise ValueError("word contains symbols outside the alphabet")
    return w


def _validate_word(sys: IfsSystem, word: Sequence[int]) -> np.ndarray:
    w = np.asarray(word)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("word must be a nonempty 1-d sequence of symbols")
    return _symbols(sys.alphabet_size, w)


def diameter_estimate(sys: IfsSystem) -> float:
    """Cheap certified over-estimate of the attractor diameter.

    Spans the cylinder centers at depth 8 and pads by the worst-case
    distance of an attractor point from its cylinder center.  The crude a
    priori bound ``diam <= 2 * max_s |phi_s(p0) - p0| / (1 - kappa)`` supplies
    the padding scale.
    """
    p0 = sys.base_point()
    step = max(float(np.linalg.norm(m(p0) - p0)) for m in sys.maps)
    crude = 2.0 * step / (1.0 - sys.kappa)
    if crude == 0.0:
        return 0.0
    # Keep the center enumeration bounded for large alphabets.
    depth = 8
    while sys.alphabet_size ** depth > 200_000 and depth > 1:
        depth -= 1
    pts = p0[None, :]
    for _ in range(depth):
        pts = np.concatenate([m(pts) for m in sys.maps], axis=0)
    span = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return span + 2.0 * sys.kappa**depth * crude


def coding_point(sys: IfsSystem, word: Sequence[int]) -> tuple[np.ndarray, float]:
    """Apply ``phi_{b_1} o ... o phi_{b_n}`` to the base point.

    Returns the point together with a bound on its distance to the exact
    coding point of any infinite extension of the word: the truncation
    ``kappa**n * diameter_estimate`` plus the float error ``rounding_bound``.
    """
    w = _validate_word(sys, word)
    p = sys.base_point()
    for s in w[::-1]:
        p = sys.maps[s](p)
    bound = sys.kappa ** len(w) * diameter_estimate(sys) + rounding_bound(sys)
    return p, bound


# Uniforms sample_words draws at a time: its only temporaries beside the words
_WORD_BLOCK = 1 << 15


def sample_words(
    sys: IfsSystem, depth: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. symbol words, one row per sample, drawn with the system weights.

    The words of ``rng.choice(alphabet_size, size=(count, depth), p=weights)``,
    leaving ``rng`` where it leaves it: the same uniforms in the same
    row-major order, drawn a block of rows at a time, and each mapped to
    ``searchsorted(cdf, u, side='right')``, the number of boundaries of the
    normalised cdf at or below it.  The values are choice's, but the dtype is
    the narrowest unsigned one, ``np.min_scalar_type(alphabet_size - 1)``
    (uint8 for up to 256 maps), not int64.  The array is column-major, so
    that one letter of every word is a contiguous column.
    """
    if depth < 1 or count < 1:
        raise ValueError("depth and count must be positive")
    cdf = np.cumsum(sys.weights)
    cdf /= cdf[-1]
    # u < 1 = cdf[-1]: the last boundary never counts
    boundaries = cdf[:-1].tolist()
    dtype = np.min_scalar_type(sys.alphabet_size - 1)
    words = np.empty((count, depth), dtype=dtype, order="F")
    rows = max(1, _WORD_BLOCK // depth)
    for first in range(0, count, rows):
        u = rng.random((min(rows, count - first), depth))
        block = np.zeros(u.shape, dtype=dtype)
        for c in boundaries:
            block += u >= c
        words[first : first + len(u)] = block
    return words


def _is_horner(sys: IfsSystem) -> bool:
    eye = np.eye(sys.dimension)
    return all(m.ratio == sys.kappa and np.array_equal(m.rotation, eye) for m in sys.maps)


def points_of_words(sys: IfsSystem, words: np.ndarray) -> np.ndarray:
    """Vectorized coding points for a batch of equal-length words.

    Each point is within ``rounding_bound(sys)`` of the exact coding point
    of its word under the system's float parameters.  ``words`` may have
    any integer dtype and is indexed as it is, without a copy; a float or
    out-of-range symbol raises ``ValueError``.
    """
    words = _symbols(sys.alphabet_size, words)
    if words.ndim != 2:
        raise ValueError("words must be a 2-d array")
    count, depth = words.shape
    pts = np.broadcast_to(sys.base_point(), (count, sys.dimension)).copy()
    if _is_horner(sys):
        # Horner step p <- kappa p + t_s: the same floats as the masked loop,
        # since x @ I is exactly x
        table = np.array([m.translation for m in sys.maps])
        step = np.empty_like(pts)
        for i in range(depth - 1, -1, -1):
            pts *= sys.kappa
            # the symbols are checked: "clip" never clips, but unlike
            # "raise" it writes to step without a buffer
            np.take(table, words[:, i], axis=0, out=step, mode="clip")
            pts += step
        return pts
    for i in range(depth - 1, -1, -1):
        col = words[:, i]
        for s in range(sys.alphabet_size):
            mask = col == s
            if mask.any():
                pts[mask] = sys.maps[s](pts[mask])
    return pts


def rounding_bound(sys: IfsSystem) -> float:
    """Euclidean bound on the float error of ``points_of_words`` and
    ``coding_point``, any depth.

    The error is measured against the same word's coding point in exact
    arithmetic on the system's float parameters and base point p0.  With u =
    2^-53, one step of a map rounds the rotation's d-term dot products (by at
    most d^{3/2} u |x| in norm; exact on the Horner route), the scaling by the
    ratio (kappa u |x|) and the translation (u |phi(x)|).  Every coding point
    lies within R = |p0| + max_s |phi_s(p0) - p0| / (1 - kappa) of the origin,
    so a step adds at most u ((1 + d^{3/2}) kappa + 1) R, and the maps
    contract the errors of earlier steps: the total is at most that over
    1 - kappa.  The factor 1.01 absorbs second-order terms and the drift of
    computed points beyond R.
    """
    d = sys.dimension
    kappa = max(m.ratio for m in sys.maps)
    p0 = sys.base_point()
    step = max(float(np.linalg.norm(m(p0) - p0)) for m in sys.maps)
    reach = float(np.linalg.norm(p0)) + step / (1.0 - kappa)
    dot = 0.0 if _is_horner(sys) else d * math.sqrt(d)
    return 1.01 * 2.0**-53 * ((1.0 + dot) * kappa + 1.0) * reach / (1.0 - kappa)


# Rows sample_fractal draws and codes at a time.  The point stream for a seed
# does not depend on it (the uniforms are drawn in one row-major order), and
# at 2^14 rows the chunk's point block and word columns stay in cache.
_SAMPLE_CHUNK = 1 << 14


def sample_fractal(
    sys: IfsSystem, count: int, depth: int | None = None, seed: int = 0
) -> np.ndarray:
    """Draw ``count`` points of the attractor from the Bernoulli measure.

    Deterministic in ``seed``; each point is the coding point of an i.i.d.
    word of the given length (defaulting to the double-precision depth).
    Words are drawn and coded ``_SAMPLE_CHUNK`` rows at a time, so beside the
    output it holds one chunk of narrow words (see ``sample_words``) and its
    point block.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if depth is None:
        depth = sys.default_depth()
    rng = np.random.default_rng(seed)
    out = np.empty((count, sys.dimension))
    done = 0
    while done < count:
        k = min(_SAMPLE_CHUNK, count - done)
        words = sample_words(sys, depth, k, rng)
        out[done : done + k] = points_of_words(sys, words)
        done += k
    return out


# ---------------------------------------------------------------------------
# JSON round trip

_SYSTEM_KEYS = {"dimension", "ratio", "maps", "weights"}
_MAP_KEYS = {"rotation", "translation"}


def system_to_json(sys: IfsSystem) -> dict:
    return {
        "dimension": sys.dimension,
        "ratio": sys.kappa,
        "maps": [
            {
                "rotation": [float(v) for v in m.rotation.ravel()],
                "translation": [float(v) for v in m.translation],
            }
            for m in sys.maps
        ],
        "weights": [float(w) for w in sys.weights],
    }


def system_from_json(doc: dict) -> IfsSystem:
    if not isinstance(doc, dict):
        raise ValueError("system description must be a JSON object")
    unknown = set(doc) - _SYSTEM_KEYS
    if unknown:
        raise ValueError(f"unknown system keys: {sorted(unknown)}")
    missing = _SYSTEM_KEYS - set(doc)
    if missing:
        raise ValueError(f"missing system keys: {sorted(missing)}")
    d = doc["dimension"]
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    ratio = doc["ratio"]
    if not isinstance(ratio, (int, float)):
        raise ValueError("ratio must be a number")
    maps_doc = doc["maps"]
    if not isinstance(maps_doc, list) or not maps_doc:
        raise ValueError("maps must be a nonempty list")
    maps = []
    for i, entry in enumerate(maps_doc):
        if not isinstance(entry, dict):
            raise ValueError(f"maps[{i}] must be an object")
        unknown = set(entry) - _MAP_KEYS
        if unknown:
            raise ValueError(f"maps[{i}] has unknown keys: {sorted(unknown)}")
        rot = entry.get("rotation")
        trans = entry.get("translation")
        if not isinstance(rot, list) or len(rot) != d * d:
            raise ValueError(f"maps[{i}].rotation must be a row-major list of {d * d} numbers")
        if not isinstance(trans, list) or len(trans) != d:
            raise ValueError(f"maps[{i}].translation must be a list of {d} numbers")
        maps.append(
            SimilarityMap(
                ratio=float(ratio),
                rotation=np.asarray(rot, dtype=float).reshape(d, d),
                translation=np.asarray(trans, dtype=float),
            )
        )
    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != len(maps):
        raise ValueError("weights must be a list with one entry per map")
    return IfsSystem(maps=tuple(maps), weights=np.asarray(weights, dtype=float))


def load_system(path) -> IfsSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))


def save_system(sys: IfsSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_json(sys), indent=2) + "\n", encoding="utf-8")
