"""The four benchmark workloads: their items, built from a seed, and the
exact checks on each item's output.

An item is one thing a user waits for: one `exospringer` CLI call, or, on
`classify`, one pair built, moved and classified.  Every expected answer
comes from `reference.json`, recorded once from the program; nothing here
asks the code under test for a reference value.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

WORKLOADS = ("census", "orbit-check", "classify", "symbolic")

LARGE_P = 2**31 - 1
SMALL_PRIMES = (3, 5, 7)
CLASSIFY_ITEMS = 100
# 11 of the 100 classify items are at p = 2^31 - 1, so with the items sorted
# by latency the 90th (nearest-rank p90) is a large-p pair and p50 a small-p one.
CLASSIFY_LARGE_P_ITEMS = 11


class Item:
    """One timed unit of a workload.

    `run()` returns (exit code, stdout); `verify(rc, out, record)` calls
    `record(check_name, ok)` once per exact check.  `argv` is the CLI call
    of an item that is one.
    """

    def __init__(self, name, run, verify, large_p=False, argv=()):
        self.name = name
        self.run = run
        self.verify = verify
        self.large_p = large_p
        self.argv = argv


def program_seed(seed):
    """The `--seed` handed to `verify --suite census`: derived from the
    benchmark seed and never 0, since 0 switches the basis change off."""
    return random.Random(seed).randrange(1, 2**31)


def call_cli(cli, argv, stdin_text=None):
    """`exospringer <argv>` in this process: (exit code, stdout text)."""
    out = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


def jobs_of(argv):
    """The `--jobs` value an argv asks for (1 when absent)."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--jobs":
            return int(value)
    return 1


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digest(report):
    """Digest of a `verify` report with its wall-clock field removed."""
    report = dict(report)
    report.pop("elapsed_s", None)
    return digest(json.dumps(report, sort_keys=True))


def build(name, seed, ref, exo):
    """The items of workload `name` for `seed`.

    `exo` holds the imported program modules (`cli`, `census`, `bicomb`,
    `symplectic`); only the item bodies call into them.
    """
    builders = {"census": _census, "orbit-check": _orbit_check,
                "classify": _classify, "symbolic": _symbolic}
    items = builders[name](seed, ref, exo)
    for item in items:
        if jobs_of(item.argv) > 1:
            raise ValueError("workload %s runs %s with --jobs > 1"
                             % (name, item.name))
    return items


def _cli_item(exo, argv, verify, name=None):
    return Item(name or " ".join(argv), lambda: call_cli(exo["cli"], argv),
                verify, argv=argv)


def _verify_report(rc, out, record, label):
    record(label + ": exit 0", rc == 0)
    report = json.loads(out)
    record(label + ": pass", report.get("pass") is True
           and report.get("mismatches") == [])
    return report


def _census_item(exo, ref, n, p, flavor, seed, counts_by_flavor,
                 check_orbits=False):
    argv = ["verify", "--suite", "census", "--n", str(n), "--p", str(p),
            "--flavor", flavor, "--seed", str(seed), "--jobs", "1"]
    if check_orbits:
        argv.append("--check-orbits")
    key = "%d,%d" % (n, p)
    expected = ref["census_counts"][key]
    nilpotent_x = ref["nilpotent_self_adjoint"][key]

    def verify(rc, out, record):
        tag = "census n=%d p=%d %s" % (n, p, flavor)
        report = _verify_report(rc, out, record, tag)
        labels = report["census"]["labels"]
        record(tag + ": label set", sorted(labels) == sorted(ref["labels"][str(n)]))
        record(tag + ": per-label counts", labels == expected)
        record(tag + ": sum of counts",
               sum(labels.values()) == nilpotent_x * p ** (2 * n)
               == report["census"]["total_points"])
        counts_by_flavor[(n, p, flavor)] = labels
        other = counts_by_flavor.get((n, p, "lie" if flavor == "group" else "group"))
        if other is not None:
            record(tag + ": lie counts equal group counts", other == labels)
        if check_orbits:
            checks = report["census"]["orbit_checks"]
            record(tag + ": one orbit check per label",
                   sorted(c["label"] for c in checks) == sorted(expected))
            for c in checks:
                record(tag + ": %s transitive" % c["label"], c["transitive"] is True)
                record(tag + ": %s orbit-stabilizer" % c["label"],
                       c["stabilizer_order"] * c["count"] == ref["sp_order"][key])

    return _cli_item(exo, argv, verify)


def _klyachko_item(exo, n, p):
    argv = ["verify", "--suite", "klyachko", "--n", str(n), "--p", str(p)]

    def verify(rc, out, record):
        tag = "klyachko n=%d p=%d" % (n, p)
        kres = _verify_report(rc, out, record, tag)["klyachko"]
        record(tag + ": orbits = p^2 - 1", kres["orbit_count"] == p * p - 1)
        record(tag + ": every orbit hit",
               kres["every_orbit_hit_by_embedding"] is True)

    return _cli_item(exo, argv, verify)


def _census(seed, ref, exo):
    s = program_seed(seed)
    counts = {}
    return [_census_item(exo, ref, 2, 3, "lie", s, counts),
            _census_item(exo, ref, 2, 3, "group", s, counts),
            _klyachko_item(exo, 2, 3),
            _census_item(exo, ref, 1, 5, "lie", s, counts),
            _census_item(exo, ref, 1, 5, "group", s, counts)]


def _orbit_check(seed, ref, exo):
    return [_census_item(exo, ref, 2, 3, "lie", program_seed(seed), {},
                         check_orbits=True)]


def classify_specs(seed, ref):
    """(n, p, label, basis seed) for the 100 classify items, in run order.

    Every label of n = 3 at p in {3, 5, 7} and at 2^31 - 1, one more n = 3
    label at 2^31 - 1, and all but one label of n = 4 at p in {3, 5, 7}.
    The seed picks the extra label, the dropped label, the basis changes
    and the order.
    """
    rng = random.Random(seed)
    n3, n4 = ref["labels"]["3"], ref["labels"]["4"]
    specs = [(3, p, lab) for p in SMALL_PRIMES for lab in n3]
    small4 = [(4, p, lab) for p in SMALL_PRIMES for lab in n4]
    del small4[rng.randrange(len(small4))]
    large = [(3, LARGE_P, lab) for lab in n3]
    large += [(3, LARGE_P, rng.choice(n3))]
    specs += small4 + large
    if (len(specs) != CLASSIFY_ITEMS
            or sum(p == LARGE_P for _, p, _ in specs) != CLASSIFY_LARGE_P_ITEMS):
        raise ValueError("classify item mix is off: %d items" % len(specs))
    rng.shuffle(specs)
    return [(n, p, lab, rng.randrange(1, 2**31)) for n, p, lab in specs]


def _classify(seed, ref, exo):
    items = []
    for n, p, label, basis_seed in classify_specs(seed, ref):
        items.append(_classify_item(exo, ref, n, p, label, basis_seed))
    return items


def _classify_item(exo, ref, n, p, label, basis_seed):
    sym, census = exo["symplectic"], exo["census"]
    dim, d = ref["orbit_dims"][str(n)][label]

    def run():
        space = sym.SymplecticSpace(n, p)
        nf = sym.normal_form_pair(exo["bicomb"].parse_bipartition(label), space)
        g = census.seeded_basis_change(space, basis_seed)
        x = g * nf.pair.x * g.inverse()
        pair = sym.ExoticPair(space, x, g.apply(nf.pair.v), nf.pair.flavor)
        return call_cli(exo["cli"], ["classify", "--input", "-"],
                        json.dumps(pair.to_json()))

    def verify(rc, out, record):
        tag = "classify n=%d p=%d %s" % (n, p, label)
        record(tag + ": exit 0", rc == 0)
        got = json.loads(out)
        record(tag + ": label", got["label"] == label)
        record(tag + ": orbit dim", got["dim_orbit"] == dim)
        record(tag + ": d", got["d"] == d)
        record(tag + ": stab_dim", got["stab_dim"] == 2 * n * n + n - dim)

    return Item("classify n=%d p=%d %s" % (n, p, label), run, verify,
                large_p=p == LARGE_P)


SYMBOLIC_TABLES = (
    ["chartable", "--n", "8", "--format", "json"],
    ["springer", "--n", "6", "--format", "json"],
    ["hasse", "--n", "8", "--format", "tsv"],
    ["branch", "--n", "8"],
)
SYMBOLIC_SUITES = (("determine", 7), ("restriction", 6), ("d-diff", 7),
                   ("sum-squares", 8))


def symbolic_argvs():
    return ([list(a) for a in SYMBOLIC_TABLES]
            + [["verify", "--suite", s, "--n", str(n)] for s, n in SYMBOLIC_SUITES])


def _symbolic(seed, ref, exo):
    del seed  # no input of this workload depends on it
    items = []
    for argv in symbolic_argvs():
        name = " ".join(argv)
        want = ref["symbolic_sha256"][name]

        def verify(rc, out, record, name=name, want=want):
            record(name + ": exit 0", rc == 0)
            if name.startswith("verify"):
                report = json.loads(out)
                record(name + ": pass", report.get("pass") is True)
                record(name + ": output digest", verify_digest(report) == want)
            else:
                record(name + ": output digest", digest(out) == want)

        items.append(_cli_item(exo, argv, verify, name))
    return items
