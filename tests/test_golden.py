"""Golden digests: the CLI outputs and the lattice kernel's raw floats at
tiny configs must stay bit-identical across refactors.

The stored digests live in ``tests/golden/digests.json``.  Regenerate them
only when an output is meant to change, and say in CHANGES.md which one and
why:

    PYTHONPATH=src python tests/test_golden.py

No height or witness goes through a BLAS product, so the digests do not
depend on the BLAS build: they were checked with scipy-openblas 0.3.31 on
x86-64 under OPENBLAS_CORETYPE=SkylakeX, Haswell and Prescott (no FMA).
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from khintchine_lab import cli, excursion, flows, ifs, lattices

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

# name -> (command, system, parameters); every run uses seed 7 and one worker
CLI_CASES = {
    "excursions_cantor2": (
        "excursions", "cantor:2", {"points": 2, "n_max": 40, "level": 3.0, "grid_refine": 4}
    ),
    "excursions_cantor3": (
        "excursions", "cantor:3", {"points": 1, "n_max": 20, "level": 3.0, "grid_refine": 2}
    ),
    "simulate_cantor1": ("simulate", "cantor:1", {"walks": 4, "steps": 300, "level": 3.0}),
    "approx_d2_rational": ("approx", "cantor:1", {"x": "3/7,5/11", "q_max": 200}),
    "approx_d2_float": ("approx", "cantor:1", {"x": "golden,0.3", "q_max": 200}),
    "dani_d2": ("dani", "cantor:1", {"d": 2, "psi_b": 1.0}),
    "survey_cantor2": ("survey", "cantor:2", {"count": 40, "q_max": 256}),
    "constants_cantor2": (
        "constants", "cantor:2", {"n_max": 3, "samples": 2000, "search_budget": 10}
    ),
    "excursions_cantor1": (
        "excursions", "cantor:1", {"points": 2, "n_max": 200, "level": 3.0, "grid_refine": 4}
    ),
    # dani_cross_check runs shortest_of_basis on 2x2 bases
    "approx_d1_rational": ("approx", "cantor:1", {"x": "3/7", "q_max": 200}),
    "approx_d1_golden": ("approx", "cantor:1", {"x": "golden", "q_max": 200}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(name: str, out_dir: Path) -> dict:
    command, system, params = CLI_CASES[name]
    flags = dict(params, seed=7, workers=1, system=system, out=str(out_dir / name))
    manifest = cli.run(cli.build_config(command, None, flags))
    verdicts = json.dumps(manifest.verdicts, sort_keys=True).encode()
    return {"outputs": manifest.outputs, "verdicts": _sha(verdicts)}


def _kernel_digests() -> dict:
    """Raw float64 bytes of heights and certified shortest vectors."""
    rng = np.random.default_rng(2024)
    out = {}
    for d in (2, 3):
        x = rng.random(d)
        out[f"diagonal_heights_d{d}"] = _sha(
            excursion.diagonal_heights(x, 1 / 3, 60, refine=4).tobytes()
        )
    sys2 = ifs.cantor_product(2)
    word = rng.integers(0, sys2.alphabet_size, size=200)
    out["walk_heights_d2"] = _sha(excursion.walk_heights(sys2, word, start=rng.random(2)).tobytes())
    h = hashlib.sha256()
    for d in (2, 3):
        for _ in range(40):
            g = flows.diagonal_point(rng.random(d), rng.uniform(0.0, 6.0))
            delta, witness = lattices.shortest_of_basis(lattices.dual_basis(g))
            h.update(np.float64(delta).tobytes())
            h.update(witness.astype(np.int64).tobytes())
            reduced, u = lattices.lll_reduce(lattices.dual_basis(g))
            h.update(reduced.tobytes())
            h.update(u.astype(np.int64).tobytes())
    out["shortest_of_basis_d2_d3"] = h.hexdigest()
    # from the identity basis the d=3 walk meets exact round(mu) ties
    sys3 = ifs.cantor_product(3)
    word = np.random.default_rng(2).integers(0, sys3.alphabet_size, size=300)
    out["walk_heights_d3"] = _sha(excursion.walk_heights(sys3, word).tobytes())
    x1 = np.random.default_rng(3).random(1)
    out["diagonal_heights_d1"] = _sha(excursion.diagonal_heights(x1, 1 / 3, 400, refine=4).tobytes())
    sys1 = ifs.cantor_product(1)
    rng1 = np.random.default_rng(4)
    word = rng1.integers(0, sys1.alphabet_size, size=2500)
    out["walk_heights_d1"] = _sha(excursion.walk_heights(sys1, word, start=rng1.random(1)).tobytes())
    # starts whose basis the first Lagrange pass changes (q != 0), and a tie
    h = hashlib.sha256()
    rng1 = np.random.default_rng(6)
    for x in (0.8, 2.5, -1.5, 7.3 + rng1.random()):
        word = rng1.integers(0, sys1.alphabet_size, size=500)
        h.update(excursion.walk_heights(sys1, word, start=[x]).tobytes())
    out["walk_heights_d1_starts"] = h.hexdigest()
    rep = excursion.tail_report(sys1, lattices.CompactWindow(3.0), walks=40, steps=1000, seed=5)
    h = hashlib.sha256(rep.empirical_tail.tobytes())
    h.update(rep.chebyshev_bound.tobytes())
    h.update(np.float64(rep.theta_hat).tobytes())
    h.update(np.int64(rep.n_censored).tobytes())
    out["tail_report_d1"] = h.hexdigest()
    # cold 2x2 bases, and starts whose first Lagrange step is an exact tie
    h = hashlib.sha256()
    rng1 = np.random.default_rng(8)
    bases = [
        lattices.dual_basis(flows.diagonal_point(rng1.random(1), rng1.uniform(0.0, 12.0)))
        for _ in range(80)
    ]
    bases += [np.array([[1.0, x], [0.0, 1.0]]) for x in (0.5, 2.5, -1.5)]
    for basis in bases:
        delta, witness = lattices.shortest_of_basis(basis)
        h.update(np.float64(delta).tobytes())
        h.update(witness.astype(np.int64).tobytes())
    out["shortest_of_basis_d1"] = h.hexdigest()
    return out


def compute(out_dir: Path) -> dict:
    return {
        "cli": {name: _run_cli(name, out_dir) for name in CLI_CASES},
        "kernel": _kernel_digests(),
    }


@pytest.fixture(scope="module")
def stored():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_outputs_match_golden(name, stored, tmp_path):
    assert _run_cli(name, tmp_path) == stored["cli"][name]


def test_kernel_floats_match_golden(stored):
    assert _kernel_digests() == stored["kernel"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = compute(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
