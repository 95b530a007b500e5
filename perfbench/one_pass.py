"""One benchmark pass in a fresh interpreter.

Sets up (import ``khintchine_lab.cli``, build the configs, resolve the
systems), runs each op of the workload once through ``cli.run``, checks each
op's verdicts and output digests, and writes one JSON result file.  With
``--trace 1`` the span wrappers are installed right after the import.

    python3 perfbench/one_pass.py --workload W --seed N --scale full \
        --trace 0 --spawned <perf_counter at spawn> --result out.json

run.py starts it; the spawn time it passes makes ``setup_s`` cover the
interpreter start as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import workloads  # noqa: E402  (sibling module; HERE is sys.path[0])

# verdict keys that must read 0 / True for an op to count as passed
MUST_BE_ZERO = (
    "growth_bound_violations",
    "domination_violations",
    "direct_violations",
    "converse_violations",
)
MUST_BE_TRUE = ("certificate_ok", "agree", "q0_agree", "monotone_ok")


def import_cli():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from khintchine_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"khintchine_lab imported from {cli.__file__}, not {SRC}")
    return cli


def verdict_failures(verdicts: dict) -> list[str]:
    bad = [f"{k}={verdicts[k]}" for k in MUST_BE_ZERO if verdicts.get(k, 0) != 0]
    bad += [f"{k}={verdicts[k]}" for k in MUST_BE_TRUE if verdicts.get(k, True) is not True]
    return bad


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_configs(cli, ops, seed: int, out_dir: Path) -> list:
    """One config per op; an op whose config is rejected gets its error instead."""
    configs = []
    for op in ops:
        flags = dict(op.params, seed=seed, workers=1, system=op.system,
                     out=str(out_dir / op.label))
        try:
            configs.append(cli.build_config(op.command, None, flags))
        except Exception as exc:
            configs.append(exc)
    for spec in sorted({op.system for op in ops}):
        cli.resolve_system(spec)
    return configs


def execute_ops(cli, ops, configs) -> list[dict]:
    """Run each op once, in order; an op that raises or fails a check is
    recorded as failed, never dropped."""
    records = []
    for op, cfg in zip(ops, configs):
        rec = {"label": op.label, "group": op.group, "seconds": 0.0,
               "failures": [], "digests": {}}
        if isinstance(cfg, Exception):
            rec["failures"].append(f"config: {cfg!r}")
            records.append(rec)
            continue
        start = time.perf_counter()
        try:
            manifest = cli.run(cfg)
        except Exception as exc:
            rec["seconds"] = time.perf_counter() - start
            rec["failures"].append(f"raised: {exc!r}")
            records.append(rec)
            continue
        rec["seconds"] = time.perf_counter() - start
        rec["failures"] += verdict_failures(manifest.verdicts)
        for name, digest in sorted(manifest.outputs.items()):
            actual = sha256(Path(cfg.output_dir) / name)
            rec["digests"][name] = actual
            if actual != digest:
                rec["failures"].append(f"{name}: manifest digest differs from the file")
        records.append(rec)
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    cli = import_cli()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    out_dir = WORK / "work" / f"{args.workload}-{os.getpid()}"
    ops = workloads.ops_for(args.workload, args.seed, args.scale)
    try:
        configs = build_configs(cli, ops, args.seed, out_dir)
        setup_s = time.perf_counter() - args.spawned
        start = time.perf_counter()
        records = execute_ops(cli, ops, configs)
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
    }
    if tracer is not None:
        result["per_layer"] = spans.per_layer_metrics(tracer.spans)
        result["call_counts"] = spans.call_counts(tracer.spans)
        result["trace_problems"] = (
            [f"unwrapped reference left at {w}" for w in tracer.stale]
            + [f"extractor failed: {e}" for e in tracer.extract_errors]
        )
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_dir / f"{args.workload}.jsonl")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
