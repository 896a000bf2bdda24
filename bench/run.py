"""Benchmark harness for the sparsevar CLI pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). For one workload it generates the seeded inputs, runs the
workload's passes in one fresh worker process (which also times
``import sparsevar.cli`` in fresh processes between the passes), checks
every pass's outputs and prints a summary followed by one JSON line:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).
Everything it writes goes under ``.bench_out/`` at the repository root.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before numpy is imported, here and (through the environment) in every child
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference")
DEFAULT_SEED = 1
# time allowed beyond --seconds for generating inputs, the worker's import,
# the traced run's import-time probe and the checks
RUN_MARGIN_S = 120.0
# Times are reported as on a host that runs calib.py's reference work in this
# many seconds: each is multiplied by CAL_REF_S / (the run's fastest
# calibration). The host's speed swings by up to 2x from minute to minute,
# and the scaling takes out the part of that the calibration sees.
CAL_REF_S = 0.2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "quality": "ratio"}
IMPORT_METRICS = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
                  "sparsevar": "import.sparsevar_s"}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run exceeded its time limit")
    return left


def probe_import_layers(deadline: float) -> dict[str, float]:
    """Self import time of sparsevar.cli's imports, summed by top-level package."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sparsevar.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline), check=True)
    totals = dict.fromkeys(IMPORT_METRICS, 0.0)
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".", 1)[0]
        if top in totals:
            totals[top] += float(self_us) / 1e6
    return {IMPORT_METRICS[k]: v for k, v in totals.items()}


def run_worker(cfg: dict, deadline: float) -> dict:
    path = os.path.join(cfg["out"], "worker_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), path],
                            env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise TimeoutError("workload process exceeded the run's time limit") from None
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the repository rooted here, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    toplevel, sha = lines
    return sha if os.path.realpath(toplevel) == os.path.realpath(ROOT) else "unknown"


def src_sha256() -> str:
    """Digest of the .py files of src/sparsevar, which identifies the code outside git."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sparsevar")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if name.endswith(".py") and os.path.isfile(path):
            with open(path, "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    from importlib.metadata import version

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": workload.name, **workload.params()},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=26.0,
                    help="time budget for the measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store pass 0's outputs as the reference (seed {DEFAULT_SEED} only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "sparsevar", "cli.py")):
        print(f"no sparsevar sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        print(f"--write-reference needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S

    import checks
    import gen
    import spans
    from workloads import WORKLOADS, generate

    w = WORKLOADS[args.workload]
    out = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    inputs = os.path.join(out, "input")
    truth = generate(w, args.seed, inputs)
    panel = os.path.join(inputs, "panel.csv")
    values = gen.read_panel_values(panel, w.k)

    if args.trace:
        import_layers = probe_import_layers(deadline)
    res = run_worker({"workload": w.name, "panel": panel, "out": out, "trace": args.trace,
                      "seconds": args.seconds, "result": os.path.join(out, "worker.json")},
                     deadline)
    setup_samples = res["setup_samples_s"]

    ref = None
    ref_path = os.path.join(REFERENCE, f"{w.name}.json")
    tally = checks.Tally()
    if args.seed == DEFAULT_SEED and not args.write_reference:
        with open(ref_path, encoding="utf-8") as fh:
            ref = json.load(fh)
        tally.check("reference.inputs", checks.sha256_file(panel) == ref["panel_sha256"])
    passes = res["passes"]
    quality, record = checks.check_passes(w, passes, values, truth, tally, ref)
    if args.write_reference and record is not None:
        os.makedirs(REFERENCE, exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "panel_sha256": checks.sha256_file(panel), **record},
                      fh, indent=1)
            fh.write("\n")

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    layer_failures = {}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = spans.median_metrics([p["metrics"] for p in traced])
        layer_failures = {k: layer.pop(k) for k in spans.FAILURE_COUNTS if k in layer}
        layer.update(import_layers)
        layer["trace.overhead_ratio"] = min(p["seconds"] for p in traced) / min(untraced)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        residual = max(abs(p["self_sum_residual_s"]) for p in traced)
        tally.check("trace.self_times_sum_to_root", residual <= 1e-9, residual)
        min_self = min(p["min_self_s"] for p in traced)
        tally.check("trace.self_times_nonnegative", min_self >= -1e-9, min_self)
        outside = sum(p["nesting_violations"] for p in traced)
        tally.check("trace.children_inside_parents", outside == 0, outside)
    else:
        # noise from other load on the host only ever adds time, so the fastest
        # pass, import and calibration are the most repeatable measures
        scale = CAL_REF_S / min(res["cal_samples_s"])
        metrics = {"setup_s": (min(setup_samples) * scale, "s"),
                   "wall_s": (min(untraced) * scale, "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
        if quality is not None:
            metrics["quality"] = (quality["quality"], "ratio")

    correct = tally.failed == 0 and quality is not None
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "provenance": provenance(args, w),
        "result": result,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "layer_failures": layer_failures,
        "quality": quality,
        "setup_samples_s": setup_samples,
        "pass_seconds": [p["seconds"] for p in passes],
        "pass_cpu_seconds": [p["cpu_seconds"] for p in passes],
        "wall_median_s": statistics.median(untraced),
        "setup_raw_s": min(setup_samples),
        "wall_raw_s": min(untraced),
        "cal_samples_s": res["cal_samples_s"],
        "pass_traced": [p["traced"] for p in passes],
        "absent_trace_targets": res["absent"],
        "checks": tally.checks,
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for c in tally.checks:
        if not c["ok"]:
            print(f"CHECK FAILED {c['check']}: {c['detail']}")
    print(f"{w.name} seed={args.seed} passes={len(passes)} "
          f"fail_ratio={detail['fail_ratio']:.6g} quality={quality}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
