"""One measured pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload census --seed 1 [--trace] [--setup-only]

Prints `READY` once the program is imported and the inputs are built (the
parent times set-up up to that line), then runs every item, checks every
answer, and prints one JSON line: wall time, item latencies, peak RSS, the
checks, and with `--trace` the per-layer metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def lru_caches(mods):
    """(layer, lru_cache object) for every cached function of the package."""
    out = []
    for mod in mods:
        layer = mod.__name__.rsplit(".", 1)[1]
        for value in vars(mod).values():
            if (callable(getattr(value, "cache_clear", None))
                    and value.__module__ == mod.__name__):
                out.append((layer, value))
    return out


# A shared VM, such as the 2-vCPU Xeon VM the bounds were set on, changes
# speed by up to a third within minutes as other guests load its host.  A
# pass therefore also times a fixed reference loop, at its start, at its
# end and between items at least REF_EVERY_S apart, and reports its times
# scaled to a reference loop of REF_NOMINAL_S (a round figure near the
# loop's median on that VM, so scaled and raw times are close there).
REF_NOMINAL_S = 0.04
REF_EVERY_S = 1.0
REF_BRACKET = 8  # samples at each end of the pass


def reference_loop():
    """Fixed pure-Python work like the program's, none of it the program:
    products of small tuple matrices mod 7, and a dict keyed by them."""
    p = 7
    m = tuple(tuple((i * 3 + j * 5) % p for j in range(6)) for i in range(6))
    seen = {}
    for k in range(1000):
        cols = tuple(zip(*m))
        m = tuple(tuple((sum(a * b for a, b in zip(row, col)) + k) % p
                        for col in cols) for row in m)
        seen[m] = seen.get(m, 0) + 1
    return len(seen)


def time_reference(samples=1):
    """Loop times, with the cyclic GC off so the program's heap does not
    change them (the loop makes no cycles)."""
    times = []
    gc.disable()
    try:
        for _ in range(samples):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def check_cold(caches):
    """Self-check: a pass must start with every lru_cache empty."""
    warm = ["%s.%s" % (layer, fn.__name__) for layer, fn in caches
            if fn.cache_info().currsize]
    if warm:
        raise RuntimeError("lru_caches warm at pass start: %s" % ", ".join(warm))


def run_pass(items, caches, stack):
    """Run and check every item; each starts with cold caches, as a CLI call does.

    `wall_s` sums the items and their checks, not the reference samples.
    """
    checks = []
    latencies = []
    large_p_s = 0.0
    cache_hits = {}

    def record(name, ok):
        checks.append([name, bool(ok)])

    def add_cache_stats():
        for layer, (h, m) in tracer.cache_stats(caches).items():
            h0, m0 = cache_hits.get(layer, (0, 0))
            cache_hits[layer] = (h0 + h, m0 + m)

    wall = 0.0
    refs = time_reference(REF_BRACKET + 1)[1:]  # the first run warms the allocator
    last_ref = time.perf_counter()
    for item in items:
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs += time_reference()
            last_ref = time.perf_counter()
        if stack is not None:
            add_cache_stats()  # cache_clear() resets the counts
        for _, fn in caches:
            fn.cache_clear()
        start = time.perf_counter()
        try:
            rc, out = item.run()
            elapsed = time.perf_counter() - start
            item.verify(rc, out, record)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            record(item.name + ": ran without error", False)
        wall += time.perf_counter() - start
        latencies.append(elapsed)
        if item.large_p:
            large_p_s += elapsed
    refs += time_reference(REF_BRACKET)
    scale = REF_NOMINAL_S / statistics.median(refs)
    result = {"wall_s": wall, "item_s": latencies, "checks": checks,
              "ref_s": refs, "wall_norm_s": wall * scale,
              "item_norm_s": [t * scale for t in latencies],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if stack is not None:
        add_cache_stats()
        layers = tracer.layer_metrics(stack, cache_hits)
        layers["bench.large_p_pairs_s"] = large_p_s
        result["layers"] = layers
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from exospringer import bicomb, census, cli, symplectic
    src = os.path.join(os.getcwd(), "src", "exospringer")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        raise RuntimeError("imported %s, not the checkout's %s" % (cli.__file__, src))
    exo = {"bicomb": bicomb, "census": census, "cli": cli,
           "symplectic": symplectic}
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    items = workloads.build(args.workload, args.seed, ref, exo)
    caches = lru_caches(tracer.modules())
    check_cold(caches)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    stack = None
    if args.trace:
        stack = tracer.SpanStack()
        targets = tracer.originals()
        tracer.install(stack)
        left = tracer.unwrapped_aliases(targets)
        if left:
            raise RuntimeError("tracer left aliases unwrapped: %s" % ", ".join(left))
    result = run_pass(items, caches, stack)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
