"""khintchine-lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload {orbits,sampling,bridge} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Closed loop, one client: for about S seconds the run starts fresh
interpreters one after another (one_pass.py), each of which sets up and calls
``cli.run`` once per op of the workload with ``--workers 1``.  BLAS and OpenMP
get one thread each.  With ``--trace 0`` the end-to-end metrics are the
medians over those passes (peak RSS: their maximum); with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from the
traced ones.  Outputs are checked in every pass (verdicts, manifest digests)
and across passes (same seed, same digests).  The last stdout line is the
JSON result; the full record (environment, per-op digests, named per-command
times) is printed before it and saved under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import signal
from statistics import median
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PASS_TIMEOUT_S = 150
MIN_PASSES = 2  # two passes with one seed make the determinism check possible
IMPORTTIME_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

# Per-layer call counts that must be nonzero on the workload that declares
# them (the span coverage guard), and those that must stay zero so that the
# workloads split the layers as designed.
DECLARED = {
    "orbits": (
        "cli.run", "ifs.sample_fractal", "flows.similarity_to_group",
        "lattices.lll_reduce.d2", "excursion.diagonal_heights.d2",
        "excursion.diagonal_excursions", "excursion.growth_bound_check",
        "excursion.tail_report",
    ),
    "sampling": (
        "cli.run", "ifs.sample_fractal", "ifs.sample_words", "ifs.points_of_words",
        "ifs.diameter_estimate", "dani.psi_eval", "scan.survey",
        "constants.alpha_estimate", "constants.subspace_mass",
        "constants.cover_hyperplane",
    ),
    "bridge": (
        "cli.run", "flows.diagonal_point", "lattices.lll_reduce.d2",
        "lattices.shortest_of_basis.d1", "lattices.shortest_of_basis.d2",
        "dani.r_from_psi", "dani.equivalence_check", "dani.check_monotonicity",
        "dani.psi_eval", "scan.scan_hits.exact", "scan.scan_hits.float",
        "scan.dani_cross_check",
    ),
}
MUST_BE_ABSENT = {"orbits": ("constants.",), "sampling": ("lattices.",), "bridge": ("constants.",)}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown ({exc})"
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
    }


def run_pass(workload: str, seed: int, scale: str, trace: int, env: dict) -> dict | None:
    """One fresh interpreter; None if it crashed or timed out."""
    with tempfile.NamedTemporaryFile(dir=WORK, suffix=".json", delete=False) as tmp:
        result_path = Path(tmp.name)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(trace),
           "--result", str(result_path)]
    try:
        proc = subprocess.Popen(cmd + ["--spawned", repr(time.perf_counter())],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
            return None
        finally:  # also on SIGTERM (see main): leave no pass running
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            print(f"perfbench: pass exited {proc.returncode}: {err.strip()[-2000:]}",
                  file=sys.stderr)
            return None
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        result_path.unlink(missing_ok=True)


def import_times(env: dict) -> dict | None:
    """cli.import.* from ``-X importtime`` in a fresh interpreter, in seconds."""
    try:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import khintchine_lab.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None
    if proc.returncode != 0:
        print(f"perfbench: import probe failed: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    total = 0
    found = {"scipy.stats": 0, "scipy.integrate": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        if name.startswith(" khintchine_lab") and not name.startswith("  "):
            total += int(cumulative)
        if module in found and found[module] == 0:
            found[module] = int(cumulative)
    return {
        "cli.import.total_s": total * 1e-6,
        "cli.import.scipy_stats_s": found["scipy.stats"] * 1e-6,
        "cli.import.scipy_integrate_s": found["scipy.integrate"] * 1e-6,
    }


def check_digests(passes: list[dict]) -> None:
    """Mark an op failed when its digests differ from the first clean run of
    the same op: runs with one seed are documented as deterministic."""
    reference = {}
    for result in passes:
        for rec in result["ops"]:
            if rec["failures"]:
                continue
            ref = reference.setdefault(rec["label"], rec["digests"])
            if rec["digests"] != ref:
                rec["failures"].append("output digests differ from another run with the same seed")


def coverage_problems(workload: str, call_counts: list[dict]) -> list[str]:
    """Coverage guard and layer split, from the call counts of every traced pass."""
    problems = []
    for counts in call_counts:
        for key in DECLARED[workload]:
            if counts.get(key, 0) == 0:
                problems.append(f"{key} recorded no calls on {workload}")
        for prefix in MUST_BE_ABSENT[workload]:
            problems += [f"{key} was called on {workload}" for key, n in counts.items()
                         if key.startswith(prefix) and n]
    return sorted(set(problems))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GROUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="tiny: minimal sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "khintchine_lab" / "cli.py").is_file():
        return fail(f"no package source at {SRC / 'khintchine_lab'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("no BENCHMARK.json at the checkout root")
    spec = load_spec()
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    WORK.mkdir(exist_ok=True)
    # Byte-compile first so that no pass pays for it: users do not, per run.
    compileall.compile_dir(str(SRC / "khintchine_lab"), quiet=1)
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "seconds": args.seconds, "environment": environment()}
    ops = workloads.ops_for(args.workload, args.seed, args.scale)
    record["ops"] = [{"label": op.label, "command": op.command, "system": op.system,
                      "params": op.params} for op in ops]

    begin = time.perf_counter()
    probes = []
    if args.trace:
        probes = [p for p in (import_times(env) for _ in range(IMPORTTIME_PROBES)) if p]
    plain, traced, crashed = [], [], 0
    while True:
        want_trace = args.trace and len(traced) < len(plain)
        started = time.perf_counter()
        result = run_pass(args.workload, args.seed, args.scale, int(want_trace), env)
        if result is None:
            crashed += 1
        else:
            (traced if want_trace else plain).append(result)
        now = time.perf_counter()
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= 1)
        # stop when another pass like this one would end after --seconds
        if (enough or crashed >= MIN_PASSES) and now + (now - started) - begin > args.seconds:
            break
    if not plain or (args.trace and (not traced or not probes)):
        return fail("no pass completed; see the errors above")

    passes = plain + traced
    check_digests(passes)
    attempted = crashed * len(ops) + sum(len(p["ops"]) for p in passes)
    failed = crashed * len(ops) + sum(bool(r["failures"]) for p in passes for r in p["ops"])
    slots = dict(zip(workloads.GROUPS[args.workload], ("cmd1_s", "cmd2_s")))
    group_times = {g: [sum(r["seconds"] for r in p["ops"] if r["group"] == g) for p in plain]
                   for g in slots}
    named = {
        "setup_s": median([p["setup_s"] for p in plain]),
        "wall_s": median([p["wall_s"] for p in plain]),
        # the run's peak: glibc returns freed arenas at varying moments, so
        # single passes of one seed differ by a few percent
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        **{g: median(v) for g, v in group_times.items()},
        **{slots[g]: median(v) for g, v in group_times.items()},
        "fail_rate": failed / attempted,
    }
    problems = []
    if args.trace:
        per_layer = [p["per_layer"] for p in traced]
        metrics = {k: median([pl[k] for pl in per_layer]) for k in per_layer[0]}
        for key in probes[0]:
            metrics[key] = median([p[key] for p in probes])
        metrics["trace.overhead_frac"] = (
            median([p["wall_s"] for p in traced]) / named["wall_s"] - 1.0)
        problems += coverage_problems(args.workload, [p["call_counts"] for p in traced])
        problems += sorted({msg for p in traced for msg in p["trace_problems"]})
    else:
        metrics = named
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not computed: {missing}")
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    record.update({
        "passes": {"plain": len(plain), "traced": len(traced), "crashed": crashed},
        "plain_pass_values": [
            {"setup_s": p["setup_s"], "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
             **{g: t[i] for g, t in group_times.items()}}
            for i, p in enumerate(plain)
        ],
        "named_metrics": named,
        "metrics": {k: v for k, v in metrics.items() if k in units},
        "problems": problems,
        "op_failures": sorted({f"{r['label']}: {msg}" for p in passes for r in p["ops"]
                               for msg in r["failures"]}),
        "digests": {r["label"]: r["digests"] for r in passes[0]["ops"]},
    })
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(results_dir / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("record " + json.dumps(record, sort_keys=True))

    out = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
