"""Outside-in layer trace: spans around the public functions of each layer.

`install()` swaps each target function for a timing wrapper, in its home
module or class and under every module-level alias that other modules bound
with `from .ffield import ...`.  Spans are aggregated as they close (count
and self time per name), so memory stays flat over millions of spans.
Nothing under `src/` is edited; a traced pass is a fresh interpreter.
"""

import importlib
import time
from collections import defaultdict

PACKAGE = "exospringer"
MODULES = ("ffield", "bicomb", "symplectic", "classify", "hyperoct",
           "springer", "census", "cli")

# (span name, module, attribute path, wrapper kind)
TARGETS = (
    ("ffield.check_modulus", "ffield", "check_modulus", "span"),
    ("ffield.matrix_new", "ffield", "FpMatrix.__init__", "span"),
    ("ffield.matmul", "ffield", "FpMatrix.__mul__", "span"),
    ("ffield.apply", "ffield", "FpMatrix.apply", "span"),
    ("ffield.rref", "ffield", "FpMatrix.rref", "span"),
    ("ffield.kernel_basis", "ffield", "FpMatrix.kernel_basis", "span"),
    ("ffield.inverse", "ffield", "FpMatrix.inverse", "span"),
    ("ffield.subspace_new", "ffield", "Subspace.__init__", "span"),
    ("ffield.commutant", "ffield", "commutant_basis", "span"),
    ("ffield.jordan_type", "ffield", "nilpotent_jordan_type", "span"),
    ("ffield.induced_action", "ffield", "induced_action", "span"),
    ("symplectic.normal_form", "symplectic", "normal_form_pair", "span"),
    ("symplectic.membership", "symplectic", "SymplecticSpace.membership", "span"),
    ("symplectic.log_map", "symplectic", "SymplecticSpace.log_map", "span"),
    ("symplectic.pair_validate", "symplectic", "ExoticPair.validate", "span"),
    ("classify.labeler_new", "classify", "exotic_labeler", "factory"),
    ("classify.label_from_span", "classify", "_label_from_span", "span"),
    ("classify.exotic_type", "classify", "exotic_type", "span"),
    ("classify.stabilizer_dim", "classify", "stabilizer_dim", "span"),
    ("census.scan", "census", "_census_chunk", "span"),
    ("census.keep", "census", "_is_nilpotent", "predicate"),
    ("census.keep", "census", "_is_unipotent", "predicate"),
    ("census.group_closure", "census", "sp_group_elements", "sized"),
    ("census.stabilizer_scan", "census", "_stabilizer_order", "span"),
    ("census.union_find", "census", "UnionFind.union", "span"),
    ("census.union_find", "census", "UnionFind.find", "span"),
    ("census.klyachko", "census", "klyachko_census", "span"),
    ("hyperoct.table", "hyperoct", "CharacterTable.__init__", "span"),
    ("hyperoct.character_row", "hyperoct", "wn_character_row", "span"),
    ("hyperoct.induce", "hyperoct", "induce_product", "span"),
    ("hyperoct.sn_character", "hyperoct", "sn_character", "span"),
    ("hyperoct.branching", "hyperoct", "restrict_branching", "span"),
    ("springer.determine", "springer", "determine_correspondence", "span"),
    ("springer.matchings", "springer", "_count_matchings", "span"),
    ("springer.table", "springer", "springer_table", "span"),
    ("springer.verify", "springer", "verify_restriction", "span"),
    ("springer.verify", "springer", "d_difference_check", "span"),
    ("springer.verify", "springer", "sum_squares_check", "span"),
    ("bicomb.bipartitions", "bicomb", "bipartitions_of", "span"),
    ("bicomb.closure_leq", "bicomb", "closure_leq", "span"),
    ("bicomb.hasse", "bicomb", "hasse_covers", "span"),
    ("cli.main", "cli", "main", "span"),
)

# Spans whose count and self time are both reported.
TIMED = ("ffield.check_modulus", "ffield.matrix_new", "ffield.matmul",
         "ffield.apply", "ffield.rref", "ffield.kernel_basis", "ffield.inverse",
         "ffield.subspace_new",
         "ffield.commutant", "ffield.jordan_type", "ffield.induced_action",
         "symplectic.normal_form", "symplectic.membership",
         "symplectic.log_map", "symplectic.pair_validate",
         "classify.labeler_new", "classify.label", "classify.exotic_type",
         "classify.stabilizer_dim", "census.union_find",
         "hyperoct.table", "hyperoct.character_row", "hyperoct.induce",
         "hyperoct.sn_character", "hyperoct.branching",
         "springer.determine", "springer.table", "springer.verify",
         "bicomb.bipartitions", "bicomb.closure_leq", "bicomb.hasse",
         "cli.main")
SELF_ONLY = ("census.scan", "census.group_closure", "census.stabilizer_scan",
             "census.klyachko")
# Layers whose lru_caches feed a cache_hit_ratio.
CACHED_LAYERS = ("hyperoct", "bicomb")


class SpanStack:
    """Aggregates nested spans as they close.

    A span's self time is its duration minus the durations of the spans
    directly inside it; recursive spans of one name are separate frames.
    `edges[(parent, child)]` counts spans by the name of the enclosing span.
    """

    def __init__(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)
        self.counters = defaultdict(int)
        self._open = []  # [name, start, time inside child spans]

    def top(self):
        return self._open[-1][0] if self._open else None

    def enter(self, name, now):
        self.edges[(self.top(), name)] += 1
        self._open.append([name, now, 0.0])

    def exit(self, now):
        name, start, inside = self._open.pop()
        duration = now - start
        self.count[name] += 1
        self.self_s[name] += duration - inside
        if self._open:
            self._open[-1][2] += duration


def _span(fn, name, stack, clock):
    def traced(*args, **kwargs):
        stack.enter(name, clock())
        try:
            return fn(*args, **kwargs)
        finally:
            stack.exit(clock())
    return traced


def _predicate(fn, name, stack, clock):
    """A census keep-test: the outermost call scans one x, True keeps it."""
    inner = _span(fn, name, stack, clock)

    def traced(*args):
        outer = stack.top() != name
        kept = inner(*args)
        if outer:
            stack.counters["census.x_scanned"] += 1
            stack.counters["census.x_kept"] += bool(kept)
        return kept
    return traced


def _sized(fn, name, stack, clock):
    """A span that also counts the elements of the returned collection."""
    inner = _span(fn, name, stack, clock)

    def traced(*args, **kwargs):
        result = inner(*args, **kwargs)
        stack.counters[name + ".elements"] += len(result)
        return result
    return traced


def _factory(fn, name, stack, clock):
    """A span around `exotic_labeler`, whose returned closure is traced too."""
    inner = _span(fn, name, stack, clock)

    def traced(*args, **kwargs):
        return _span(inner(*args, **kwargs), "classify.label", stack, clock)
    return traced


WRAPPERS = {"span": _span, "predicate": _predicate, "sized": _sized,
            "factory": _factory}


def modules():
    return [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES]


def _namespaces(mods):
    """Every module dict and class dict in the package that can hold an alias."""
    for mod in mods:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def _lookup(module, path):
    owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def originals():
    """id -> function for every target, read from its home namespace."""
    return {id(fn): fn for fn in (_lookup(m, path) for _, m, path, _ in TARGETS)}


def install(stack, clock=time.perf_counter):
    """Wrap every target under every alias; returns a function that undoes it."""
    targets = originals()
    wrappers = {}
    for name, module, path, kind in TARGETS:
        fn = _lookup(module, path)
        wrappers[id(fn)] = WRAPPERS[kind](fn, name, stack, clock)
    undo = []
    for ns in _namespaces(modules()):
        for key, value in list(vars(ns).items()):
            if id(value) in targets and value is targets[id(value)]:
                undo.append((ns, key, value))
                setattr(ns, key, wrappers[id(value)])

    def uninstall():
        for ns, key, value in undo:
            setattr(ns, key, value)
    return uninstall


def unwrapped_aliases(targets):
    """'module.name' or 'module.Class.name' of every alias still bound to
    one of the original target functions."""
    left = []
    for ns in _namespaces(modules()):
        for key, value in vars(ns).items():
            if id(value) in targets and value is targets[id(value)]:
                owner = ns.__name__ if not isinstance(ns, type) else \
                    "%s.%s" % (ns.__module__, ns.__qualname__)
                left.append("%s.%s" % (owner, key))
    return left


def cache_stats(caches):
    """(hits, misses) per layer from the lru_caches' cache_info()."""
    out = {}
    for layer, fn in caches:
        info = fn.cache_info()
        hits, misses = out.get(layer, (0, 0))
        out[layer] = (hits + info.hits, misses + info.misses)
    return out


def ratio(num, den):
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(stack, cache_hits):
    """Per-layer metrics from a finished trace, every name always present."""
    m = {}
    for name in TIMED:
        m[name + ".count"] = stack.count.get(name, 0)
        m[name + ".self_s"] = stack.self_s.get(name, 0.0)
    for name in SELF_ONLY:
        m[name + ".self_s"] = stack.self_s.get(name, 0.0)
    m["classify.span_miss.count"] = stack.edges.get(
        ("classify.label", "classify.label_from_span"), 0)
    m["classify.span_hit_ratio"] = (
        1.0 - ratio(m["classify.span_miss.count"], m["classify.label.count"])
        if m["classify.label.count"] else 0.0)
    scanned = stack.counters.get("census.x_scanned", 0)
    kept = stack.counters.get("census.x_kept", 0)
    m["census.x_scanned.count"] = scanned
    m["census.x_kept.count"] = kept
    m["census.keep_ratio"] = ratio(kept, scanned)
    m["census.points_labelled.count"] = m["classify.label.count"]
    m["census.group_elements.count"] = stack.counters.get(
        "census.group_closure.elements", 0)
    m["springer.matchings.count"] = stack.count.get("springer.matchings", 0)
    for layer in CACHED_LAYERS:
        hits, misses = cache_hits.get(layer, (0, 0))
        m[layer + ".cache_hit_ratio"] = ratio(hits, hits + misses)
    return m
