"""Experiment runner: seeded, parallel, manifest-writing command dispatch.

Per-task seeds derive from SeedSequence((master_seed, task_index)), results
merge in task-index order, and every data file is digested into a manifest
written atomically at the end; re-running a config reproduces the digests
bit for bit, independently of the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys as _sys
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .constants import (
    alpha_estimate,
    axis_subspace_measure,
    bound_constant,
    cantor_varpi,
    cover_hyperplane,
    varpi_of,
)
from .dani import ApproxFunction, RateFunction, classify_khintchine_series, equivalence_check, r_from_psi, t0_of
from .excursion import (
    NoWindowDataError,
    diagonal_excursions,
    growth_bound_check,
    lipschitz_slack,
    tail_report,
)
from .ifs import IfsSystem, cantor_product, load_system, sample_fractal
from .lattices import CompactWindow
from .scan import dani_cross_check, parse_point, survey

if TYPE_CHECKING:
    import argparse

_TOP_KEYS = {"command", "system", "seed", "workers", "output_dir", "parameters"}

# the power-log psi of dani, approx and survey
_PSI_SPEC = {
    "psi_c": (float, 1.0),
    "psi_a": (float, 1.0),
    "psi_b": (float, 0.0),
    "psi_x0": (float, 1.0),
}

# parameter schema per command: name -> (caster, default); each name is also
# the command's flag, spelt with dashes
_PARAM_SPECS = {
    "simulate": {
        "walks": (int, 50),
        "steps": (int, 2000),
        "level": (float, 3.0),
        "m": (int, 1),
        "delta": (float, None),
        "varpi": (float, None),
        "burn_in": (int, 64),
    },
    "excursions": {
        "points": (int, 20),
        "n_max": (int, 1000),
        "level": (float, 3.0),
        "grid_refine": (int, 4),
    },
    "dani": {
        "d": (int, 1),
        "alpha": (float, 0.5),
        **_PSI_SPEC,
        "grid": (list, [10.0, 20.0, 40.0, 60.0]),
    },
    "approx": {
        "x": (str, "1/2"),
        **_PSI_SPEC,
        "q_max": (int, 1000),
        "tol": (float, 1e-6),
    },
    "survey": {
        "count": (int, 1000),
        "q_max": (int, 10000),
        **_PSI_SPEC,
        "psi_a": (float, 1.5),
        "depth": (int, None),
    },
    "constants": {
        "n_max": (int, 6),
        "search_budget": (int, 200),
        "samples": (int, 100000),
    },
}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    system: str
    parameters: dict
    seed: int
    workers: int
    output_dir: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    config: dict
    started: str
    finished: str
    outputs: dict
    verdicts: dict

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _cast(name: str, caster, value):
    if value is None:
        return None
    try:
        if caster is list:
            if isinstance(value, str):
                return [v for v in value.split(",") if v != ""]
            return list(value)
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name!r}: {value!r} ({exc})") from exc


def build_config(command: str, file_doc: dict | None, flags: dict) -> ExperimentConfig:
    """Merge config file and explicit flags; flags win.  Unknown keys are a
    hard error naming the key."""
    spec = _PARAM_SPECS.get(command)
    if spec is None:
        raise ConfigError(f"command {command!r} takes no config")
    doc = dict(file_doc or {})
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if doc.get("command") not in (None, command):
        raise ConfigError(
            f"config file is for command {doc['command']!r}, not {command!r}"
        )
    params = dict(doc.get("parameters") or {})
    for key in params:
        if key not in spec:
            raise ConfigError(f"unknown parameter key {key!r} for {command}")
    merged = {}
    for name, (caster, default) in spec.items():
        if flags.get(name) is not None:
            merged[name] = _cast(name, caster, flags[name])
        elif name in params:
            merged[name] = _cast(name, caster, params[name])
        else:
            merged[name] = default
    seed = flags.get("seed")
    if seed is None:
        seed = doc.get("seed", 0)
    seed = _cast("seed", int, seed)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    workers = flags.get("workers")
    if workers is None:
        workers = doc.get("workers", os.environ.get("KHINTCHINE_LAB_WORKERS", 1))
    workers = _cast("workers", int, workers)
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    system = flags.get("system") or doc.get("system") or "cantor:1"
    out = flags.get("out") or doc.get("output_dir") or f"runs_{command}"
    return ExperimentConfig(
        command=command,
        system=str(system),
        parameters=merged,
        seed=seed,
        workers=workers,
        output_dir=str(out),
    )


def resolve_system(spec: str) -> IfsSystem:
    if spec.startswith("cantor:"):
        return cantor_product(int(spec.split(":", 1)[1]))
    return load_system(spec)


def _derived_seed(master: int, index: int) -> int:
    ss = np.random.SeedSequence((master, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _repr_float(v) -> str:
    return repr(float(v))


def _g17(v) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: str, header, rows, fmt=_repr_float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            out = []
            for v in row:
                if v is None:
                    out.append("")
                elif isinstance(v, (int, np.integer)):
                    out.append(str(int(v)))
                else:
                    out.append(fmt(v))
            writer.writerow(out)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_pool(task_fn, payloads, workers: int):
    """Ordered map over payloads; identical output for any worker count."""
    if workers <= 1 or len(payloads) <= 1:
        return [task_fn(p) for p in payloads]
    # imported here: concurrent.futures.process loads multiprocessing, about
    # 12 ms of every import of the command line
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task_fn, p) for p in payloads]
        return [f.result() for f in futures]


def _psi_from_params(params: dict) -> ApproxFunction:
    return ApproxFunction.power_log(
        params["psi_c"], params["psi_a"], params["psi_b"], params["psi_x0"]
    )


# ---------------------------------------------------------------------------
# command bodies (task functions are module-level for pickling)


def _excursion_task(payload):
    system, seed, n_max, level, grid_refine = payload
    x = sample_fractal(system, 1, seed=seed)[0]
    window = CompactWindow(level)
    records = diagonal_excursions(x, system.kappa, window, n_max, grid_refine)
    slack = lipschitz_slack(system.kappa, system.dimension, grid_refine)
    bad = growth_bound_check(
        records, window, system.kappa, system.dimension, peak_slack=slack
    )
    rows = [(seed, r.index, r.start_step, r.length, r.peak) for r in records]
    return rows, len(bad)


def _constants_task(payload):
    system, l, n_values, budget, samples, seed, is_cantor = payload
    d = system.dimension
    points = alpha_estimate(
        system, l, n_values, search_budget=budget, seed=seed, sample_count=samples
    )
    rows = []
    for pt in points:
        if is_cantor:
            lower, upper = axis_subspace_measure(d, l, pt.n)
        else:
            lower, upper = math.nan, math.nan
        rows.append((d, l, pt.n, lower, upper, pt.ratio, pt.confidence))
    final_ratio = points[-1].ratio if points else math.nan
    return rows, final_ratio


def _cmd_simulate(cfg: ExperimentConfig, out_dir: str):
    system = resolve_system(cfg.system)
    p = cfg.parameters
    report = tail_report(
        system,
        CompactWindow(p["level"]),
        walks=p["walks"],
        steps=p["steps"],
        seed=_derived_seed(cfg.seed, 0),
        m=p["m"],
        delta=p["delta"],
        varpi=p["varpi"],
        burn_in=p["burn_in"],
    )
    rows = list(zip(report.thresholds, report.empirical_tail, report.chebyshev_bound))
    path = os.path.join(out_dir, "tails.csv")
    _write_csv(path, ["s", "empirical", "bound"], rows, fmt=_g17)
    violations = int(np.sum(report.empirical_tail > report.chebyshev_bound + 1e-12))
    verdicts = {
        "domination_violations": violations,
        "fitted_rate": report.fitted_rate,
        "fitted_rate_ci": list(report.fitted_rate_ci),
        "theta_hat": report.theta_hat,
        "rate": report.rate,
        "delta": report.delta,
        "n_samples": report.n_samples,
        "n_censored": report.n_censored,
    }
    return ["tails.csv"], verdicts


def _cmd_excursions(cfg: ExperimentConfig, out_dir: str):
    system = resolve_system(cfg.system)
    p = cfg.parameters
    payloads = [
        (system, _derived_seed(cfg.seed, i), p["n_max"], p["level"], p["grid_refine"])
        for i in range(p["points"])
    ]
    results = _run_pool(_excursion_task, payloads, cfg.workers)
    rows = []
    total_bad = 0
    for task_rows, bad in results:
        rows.extend(task_rows)
        total_bad += bad
    if not rows:
        # 0 violations over 0 records would pass vacuously
        raise NoWindowDataError("no excursion record: the growth-bound check judged nothing")
    path = os.path.join(out_dir, "excursions.csv")
    _write_csv(path, ["seed", "n", "tau", "sigma", "nu"], rows, fmt=_g17)
    verdicts = {
        "growth_bound_violations": total_bad,
        "n_records": len(rows),
        "points": p["points"],
    }
    return ["excursions.csv"], verdicts


def _cmd_dani(cfg: ExperimentConfig, out_dir: str):
    p = cfg.parameters
    psi = _psi_from_params(p)
    d = p["d"]
    grid = [float(t) for t in p["grid"]]
    rate = RateFunction(psi, d)
    closed_residual = math.nan
    if psi.b == 0.0:
        shift = -math.log(psi.c) / (1.0 + psi.a)
        ts = np.linspace(rate.t_start, rate.t_start + 40.0, 41)
        closed_residual = float(np.max(np.abs(r_from_psi(psi, d, ts) - (rate.slope * ts + shift))))
    monotone_ok = rate.check_monotonicity()
    eq = equivalence_check(psi, d, p["alpha"], grid=tuple(grid))
    doc = {
        "psi": psi.to_json(),
        "d": d,
        "alpha": p["alpha"],
        "gamma": eq.gamma,
        "t0": t0_of(psi, d),
        "closed_form_residual": closed_residual,
        "monotone_ok": monotone_ok,
        "truncations": list(eq.truncations),
        "i_psi": [float(v) for v in eq.i_psi],
        "i_r": [float(v) for v in eq.i_r],
        "ratios": [float(v) for v in eq.ratios],
        "psi_verdict": eq.psi_verdict,
        "rate_verdict": eq.rate_verdict,
        "agree": eq.agree,
        "q0_psi_verdict": eq.q0_psi_verdict,
        "q0_rate_verdict": eq.q0_rate_verdict,
        "q0_agree": eq.q0_agree,
    }
    path = os.path.join(out_dir, "dani.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    verdicts = {
        "agree": eq.agree,
        "q0_agree": eq.q0_agree,
        "monotone_ok": monotone_ok,
        "closed_form_residual": closed_residual,
        "psi_verdict": eq.psi_verdict,
        "rate_verdict": eq.rate_verdict,
    }
    return ["dani.json"], verdicts


def _cmd_approx(cfg: ExperimentConfig, out_dir: str):
    p = cfg.parameters
    psi = _psi_from_params(p)
    x, x_exact = parse_point(p["x"])
    d = x.size
    check = dani_cross_check(x, psi, d, p["q_max"], tol=p["tol"], x_exact=x_exact)
    if check.hits_checked == 0:
        # 0 violations over 0 checked hits would pass vacuously
        raise ValueError("no hit checked: every hit is exact or has its witness time below t0")
    header = ["point_id", "q"] + [f"p_{j}" for j in range(d)] + [
        "error",
        "margin",
        "witness_time",
    ]
    rows = [
        (0, h.q, *[int(v) for v in h.p], h.error, h.margin, h.witness_time)
        for h in check.hits
    ]
    path = os.path.join(out_dir, "hits.csv")
    _write_csv(path, header, rows)
    verdicts = {
        "hits": len(check.hits),
        "hits_checked": check.hits_checked,
        "degenerate_skipped": check.degenerate_skipped,
        "below_domain_skipped": check.below_domain_skipped,
        "direct_violations": len(check.direct_violations),
        "converse_crossings": check.crossings,
        "converse_violations": len(check.converse_violations),
        "times_checked": check.times_checked,
    }
    return ["hits.csv"], verdicts


def _cmd_survey(cfg: ExperimentConfig, out_dir: str):
    system = resolve_system(cfg.system)
    p = cfg.parameters
    psi = _psi_from_params(p)
    stats = survey(
        system,
        psi,
        p["count"],
        p["q_max"],
        depth=p["depth"],
        seed=_derived_seed(cfg.seed, 0),
    )
    rows = [(s.k, s.fraction, s.n_uncertain) for s in stats]
    path = os.path.join(out_dir, "survey.csv")
    _write_csv(path, ["band", "fraction", "n_uncertain"], rows)
    d = system.dimension
    varpi = system.default_varpi()
    verdicts = {
        "bands": len(stats),
        "fractions": [s.fraction for s in stats],
        "series_at_half_varpi": classify_khintchine_series(psi, d, varpi / 2),
        "series_at_varpi": classify_khintchine_series(psi, d, varpi),
    }
    return ["survey.csv"], verdicts


def _cmd_constants(cfg: ExperimentConfig, out_dir: str):
    system = resolve_system(cfg.system)
    p = cfg.parameters
    d = system.dimension
    is_cantor = cfg.system.startswith("cantor:")
    l_values = list(range(1, d + 1))
    n_values = list(range(2, p["n_max"] + 1))
    if not n_values:
        raise ConfigError("n_max must be at least 2")
    payloads = [
        (
            system,
            l,
            n_values,
            p["search_budget"],
            p["samples"],
            _derived_seed(cfg.seed, i),
            is_cantor,
        )
        for i, l in enumerate(l_values)
    ]
    results = _run_pool(_constants_task, payloads, cfg.workers)
    rows = []
    final_ratios = []
    for task_rows, final_ratio in results:
        rows.extend(task_rows)
        final_ratios.append(final_ratio)
    path = os.path.join(out_dir, "constants.csv")
    _write_csv(
        path, ["d", "l", "n", "lower", "upper", "ratio", "confidence"], rows
    )
    verdicts = {
        "final_ratios": final_ratios,
        "l_values": l_values,
    }
    if all(math.isfinite(r) for r in final_ratios):
        verdicts["varpi_hat"] = varpi_of(final_ratios, d)
    if is_cantor:
        verdicts["varpi_exact"] = cantor_varpi(d)
        if d <= 3:
            n_cert = min(p["n_max"], 8 if d <= 2 else 6)
            cert = cover_hyperplane([1.0] * d, d / 2.0, n_cert)
            verdicts["certificate_n"] = n_cert
            verdicts["certificate_count"] = cert.count
            verdicts["certificate_bound"] = bound_constant(d) * 2 ** ((d - 1) * n_cert)
            verdicts["certificate_ok"] = bool(
                cert.count <= verdicts["certificate_bound"]
            )
    return ["constants.csv"], verdicts


_COMMANDS = {
    "simulate": _cmd_simulate,
    "excursions": _cmd_excursions,
    "dani": _cmd_dani,
    "approx": _cmd_approx,
    "survey": _cmd_survey,
    "constants": _cmd_constants,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one command and write its outputs plus manifest.json."""
    os.makedirs(config.output_dir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outputs, verdicts = _COMMANDS[config.command](config, config.output_dir)
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    digests = {name: _digest(os.path.join(config.output_dir, name)) for name in outputs}
    manifest = RunManifest(
        command=config.command,
        version=__version__,
        config=config.to_json(),
        started=started,
        finished=finished,
        outputs=digests,
        verdicts=verdicts,
    )
    fd, tmp = tempfile.mkstemp(dir=config.output_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(config.output_dir, "manifest.json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return manifest


def report_runs(run_dirs) -> str:
    """Aggregate manifests into one markdown summary; every number carries
    its source file and digest."""
    lines = ["# khintchine-lab report", ""]
    for run_dir in run_dirs:
        path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing manifest: {path}")
        with open(path) as fh:
            doc = json.load(fh)
        lines.append(f"## {doc['command']}  `{run_dir}`")
        lines.append("")
        lines.append(f"- version: {doc['version']}, seed: {doc['config']['seed']}")
        for name, digest in sorted(doc["outputs"].items()):
            lines.append(f"- output `{name}` sha256 `{digest}`")
        src = ", ".join(f"`{run_dir}/{n}`" for n in sorted(doc["outputs"]))
        for key, value in sorted(doc["verdicts"].items()):
            lines.append(f"- {key}: {value} (source: {src})")
        lines.append("")
    return "\n".join(lines)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--workers", type=int, help="worker processes")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--system", help='IFS JSON file or builtin "cantor:d"')


def _build_parser() -> argparse.ArgumentParser:
    # imported here: the console entry is its one user, and ``run`` needs no
    # parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="khintchine-lab",
        description="fractal approximation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = subs.add_parser(command)
        _add_common(sub)
        for name in _PARAM_SPECS[command]:
            sub.add_argument("--" + name.replace("_", "-"))
    rep = subs.add_parser("report")
    rep.add_argument("run_dirs", nargs="*")
    rep.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            text = report_runs(args.run_dirs)
            out_dir = args.out or "."
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "report.md")
            with open(path, "w") as fh:
                fh.write(text)
            print(path)
            return 0
        file_doc = None
        if args.config:
            try:
                with open(args.config) as fh:
                    file_doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        # the parsed namespace holds every parameter flag plus seed, workers,
        # out and system; build_config reads only those names
        config = build_config(args.command, file_doc, vars(args))
        manifest = run(config)
        n_out = len(manifest.outputs)
        print(f"{config.output_dir}: {n_out} output file(s) written")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
