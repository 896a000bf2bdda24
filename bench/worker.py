"""The workload process: times ``import sparsevar.cli``, then runs passes.

Run by ``run.py`` as ``python3 bench/worker.py CONFIG.json`` with the
thread variables pinned and ``src`` on PYTHONPATH. Passes run back to back
(closed loop, one caller) until the next one would end after the time
budget, with at least MIN_PASSES passes. In an untraced run, the import and
the host-speed calibration (calib.py) are also timed, each in a fresh
process, before the first pass and after every pass, so these samples are
spread over the run. In a traced run, passes alternate untraced and traced
so both wall times come from the same process. The outcome is written to
the config's ``result`` path.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

MIN_PASSES = 2
PROBE = ("import time; t = time.perf_counter(); import sparsevar.cli; "
         "print(repr(time.perf_counter() - t))")
CALIB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calib.py")


def fresh_process_seconds(args: list[str]) -> float:
    """The time a fresh Python process with this environment prints last."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    t0 = time.perf_counter()
    import sparsevar.cli as cli
    import_s = time.perf_counter() - t0

    import spans
    from workloads import WORKLOADS, run_pass

    w = WORKLOADS[cfg["workload"]]

    def call(argv):
        # looked up on every call, so the traced wrapper is used when installed
        try:
            return cli.main(argv)
        except Exception:  # a crash inside the CLI is a failed call, not a crashed run
            traceback.print_exc()
            return 99

    rec = spans.Recorder()
    tracer = spans.Tracer(rec) if cfg["trace"] else None
    traced_spans: list[tuple[int, list]] = []
    passes = []
    setup_samples = [import_s]
    cal_samples = []

    def sample():
        setup_samples.append(fresh_process_seconds(["-c", PROBE]))
        cal_samples.append(fresh_process_seconds([CALIB]))

    start = time.perf_counter()
    if not cfg["trace"]:
        sample()
    rounds: list[float] = []  # a pass plus the samples after it
    while True:
        t_round = time.perf_counter()
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        out = os.path.join(cfg["out"], f"pass{i}")
        os.makedirs(out)
        record = {"index": i, "traced": traced, "dir": out}
        if traced:
            rec.reset()
            tracer.install()
            c_pass, t_pass = cpu_s(), time.perf_counter()
            root = rec.begin("bench.pass")
            calls = run_pass(w, cfg["panel"], out, call)
            rec.end(root)
            record["seconds"] = time.perf_counter() - t_pass
            record["cpu_seconds"] = cpu_s() - c_pass
            tracer.uninstall()
            record["metrics"] = tracer.pass_metrics()
            selfs = spans.self_times(rec.spans)
            root_s = rec.spans[root][2] - rec.spans[root][1]
            record["self_sum_residual_s"] = sum(selfs) - root_s
            record["min_self_s"] = min(selfs)
            record["nesting_violations"] = spans.nesting_violations(rec.spans)
            traced_spans.append((i, [list(s) for s in rec.spans]))
        else:
            c_pass, t_pass = cpu_s(), time.perf_counter()
            calls = run_pass(w, cfg["panel"], out, call)
            record["seconds"] = time.perf_counter() - t_pass
            record["cpu_seconds"] = cpu_s() - c_pass
        record["calls"] = calls
        passes.append(record)
        if not cfg["trace"]:
            sample()
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(rounds) > cfg["seconds"]:
            break

    result = {
        "setup_samples_s": setup_samples,
        "cal_samples_s": cal_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "absent": tracer.absent if tracer else [],
    }
    if traced_spans:
        path = os.path.join(cfg["out"], "trace.jsonl")
        for i, recorded in traced_spans:
            spans.write_jsonl(path, recorded, {"pass": i})
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
