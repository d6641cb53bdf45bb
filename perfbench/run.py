"""exospringer benchmark: time-to-verdict on four workloads, checked exactly.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root.  Each measured pass is a fresh interpreter
(`worker.py`), so every pass starts with cold caches as a CLI user's does.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of one traced pass and the
tracing overhead.  See METRICS.md.  Exit status: 0 when every exact check
passed, 1 when one failed, 2 when the program cannot be run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "orbit-check", "classify", "symbolic")
SETUP_PROBES = 5
PASS_TIMEOUT_S = 170
MIN_BEYOND = 10

UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "item_norm_ms.p50": "ms", "item_norm_ms.p90": "ms"}


class SetupError(RuntimeError):
    """The program could not be imported or its inputs not built."""


def percentile(samples, pct):
    """Nearest-rank `pct`-th percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def reportable(samples, pct):
    """A percentile counts only when at least ten samples lie beyond it."""
    return percentile(samples, pct)[1] >= MIN_BEYOND


def tally(passes):
    """(checks attempted, checks failed) over pass results.

    A pass that crashed or exited non-zero is None and counts as one
    attempted, failed check.
    """
    attempted = failed = 0
    for result in passes:
        if result is None:
            attempted += 1
            failed += 1
        else:
            attempted += len(result["checks"])
            failed += sum(1 for _, ok in result["checks"] if not ok)
    return attempted, failed


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record():
    """Where the numbers come from; compare only runs with equal records."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu": cpu,
            "load1_start": os.getloadavg()[0], "git_commit": commit,
            "git_dirty": dirty}


def spawn(workload, seed, trace=False, setup_only=False):
    """One worker: (set-up seconds, pass result or None if it failed)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    if first.strip() != "READY":
        raise SetupError("%s worker did not get ready (exit %s)"
                         % (workload, proc.returncode))
    if proc.returncode != 0 or setup_only:
        return setup, None
    return setup, json.loads(rest.splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Passes until `seconds` have gone by, plus one traced pass if asked."""
    setups = [spawn(workload, seed, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        setup, result = spawn(workload, seed)
        if setup is not None:
            setups.append(setup)
        passes.append(result)
    traced = spawn(workload, seed, trace=True)[1] if trace else None
    return setups, passes, traced


def end_to_end(setups, passes):
    """Medians over passes; raw seconds go in the notes beside the scaled ones."""
    ok = [r for r in passes if r is not None]
    if not ok:
        return {}, {}
    metrics = {"wall_norm_s": statistics.median(r["wall_norm_s"] for r in ok),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok)}
    notes = {"wall_norm_s": "median of %d passes; raw wall_s %.3f, reference loop %.4f s" % (
                 len(ok), statistics.median(r["wall_s"] for r in ok),
                 statistics.median(t for r in ok for t in r["ref_s"])),
             "setup_s": "median of %d set-ups" % len(setups),
             "peak_rss_mb": "median of %d passes" % len(ok)}
    n_items = len(ok[0]["item_s"])
    for pct in (50, 90):
        name = "item_norm_ms.p%d" % pct
        metrics[name] = statistics.median(
            percentile(r["item_norm_s"], pct)[0] * 1000 for r in ok)
        raw = statistics.median(percentile(r["item_s"], pct)[0] * 1000 for r in ok)
        notes[name] = "median of %d passes of %d items, %d beyond%s; raw %.1f ms" % (
            len(ok), n_items, percentile(range(n_items), pct)[1],
            "" if reportable(range(n_items), pct) else " (under ten: indicative only)",
            raw)
    return metrics, notes


def per_layer(passes, traced):
    """The traced pass's layer metrics and its overhead over untraced passes."""
    if traced is None:
        return {}
    metrics = dict(traced["layers"])
    untraced = statistics.median(r["wall_s"] for r in passes if r is not None)
    metrics["bench.traced_wall_s"] = traced["wall_s"]
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced
    return metrics


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".count"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def run_one(workload, seed, seconds, trace):
    """Measure one workload, print its report and result line; True if all checks passed."""
    record = machine_record()
    setups, passes, traced = measure(workload, seed, seconds, trace)
    attempted, failed = tally(passes + ([traced] if trace else []))
    if trace:
        metrics, notes = per_layer(passes, traced), {}
    else:
        metrics, notes = end_to_end(setups, passes)
    record["load1_end"] = os.getloadavg()[0]
    print("machine %s" % json.dumps(record, sort_keys=True))
    print("workload %s seed %d: %d passes, error_rate %s (%d of %d checks failed)"
          % (workload, seed, len(passes), failed / attempted, failed, attempted))
    for name, value in metrics.items():
        print("  %-36s %14.6f %-6s %s" % (name, value, unit_of(name),
                                           notes.get(name, "")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    sys.stdout.flush()
    return failed == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "exospringer", "__init__.py")):
        print("no program to measure: %s/src/exospringer is missing" % ROOT,
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        ok = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
