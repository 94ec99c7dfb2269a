"""Per-layer numbers from one traced pass.

A layer is a module of `src/ssp`.  Self time comes from `cProfile`.  Time
spent in the standard library or in builtins is charged to the innermost
`ssp` module on the stack.  cProfile keeps self time per caller edge but
not whole stacks, so a library function called only by other library
functions is split over their owners in proportion to the cumulative time
of each caller edge.

Call counts leave out generator expressions and comprehensions: CPython
3.11's profiler reports each resumption of a generator as a call, and
whether it does so for a given generator varies from run to run.
"""

from __future__ import annotations

import os

_COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>")

LAYERS = ("gf", "witt", "linalg", "dieudonne", "hermitian", "groups", "ftables", "count", "exact", "cli")

# (metric, layer, function name): cumulative seconds of every function of
# that name in that module, over all its callers.
CUMULATIVE = (
    ("hermitian.automorphism_group_bruteforce.cum_s", "hermitian", "automorphism_group_bruteforce"),
    ("groups.conjugacy_class_data.cum_s", "groups", "conjugacy_class_data"),
    ("linalg.charpoly.cum_s", "linalg", "charpoly"),
    ("dieudonne.check_axioms.cum_s", "dieudonne", "check_axioms"),
    ("dieudonne.newton_polygon.cum_s", "dieudonne", "newton_polygon"),
    ("hermitian.reduce_pairing.cum_s", "hermitian", "reduce_pairing"),
    ("count.equivariant_dimension.cum_s", "count", "equivariant_dimension"),
    ("cli.main.cum_s", "cli", "main"),
    # FieldTable.__init__ and QuatTable.__init__
    ("ftables.table_build_s", "ftables", "__init__"),
)

# (metric, layer, function name): number of calls.
CALLS = (
    ("ftables.mat_mul.calls", "ftables", "mat_mul"),  # FieldTable and QuatTable
    ("witt.mul.calls", "witt", "__mul__"),
    ("witt.sigma.calls", "witt", "sigma"),
    ("linalg.charpoly.calls", "linalg", "charpoly"),
    ("gf.mul.calls", "gf", "__mul__"),
    ("gf.inv.calls", "gf", "inv"),
    ("count.eigensystem_bound.calls", "count", "eigensystem_bound"),
)


def summarize(stats: dict, package_dir: str, harness_dir: str) -> dict:
    """Layer self times, layer call counts and the named function totals
    from `pstats.Stats(...).stats` of one traced pass.  Time in functions
    of `harness_dir`, and in what they call, is charged to no layer."""
    package_dir = os.path.realpath(package_dir)
    harness_dir = os.path.realpath(harness_dir)
    layer_cache: dict = {}

    def is_harness(func):
        # builtins ('~') and frozen modules have no file to resolve
        return func[0].endswith(".py") and os.path.dirname(os.path.realpath(func[0])) == harness_dir

    def layer_of(func):
        if func not in layer_cache:
            filename = func[0]
            layer = None
            if filename.endswith(".py") and os.path.dirname(os.path.realpath(filename)) == package_dir:
                stem = os.path.basename(filename)[:-3]
                layer = stem if stem in LAYERS else None
            layer_cache[func] = layer
        return layer_cache[func]

    owners: dict = {}

    def owner_shares(func, active=frozenset()):
        """{layer: share} of the time `func` runs under each innermost layer."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        if func in active or func not in stats or is_harness(func):
            return {}
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        shares: dict = {}
        for caller, edge in callers.items():
            if total <= 0:
                break
            for lay, share in owner_shares(caller, active | {func}).items():
                shares[lay] = shares.get(lay, 0.0) + share * edge[3] / total
        owners[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            self_s[layer] += tt
            if func[2] not in _COMPREHENSIONS:
                calls[layer] += nc
            continue
        if is_harness(func):
            continue
        for caller, edge in callers.items():
            for lay, share in owner_shares(caller).items():
                self_s[lay] += edge[2] * share

    def named(layer, name):
        matches = [v for f, v in stats.items() if layer_of(f) == layer and f[2] == name]
        return sum(v[1] for v in matches), sum(v[3] for v in matches)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    for metric, layer, name in CUMULATIVE:
        out[metric] = named(layer, name)[1]
    for metric, layer, name in CALLS:
        out[metric] = named(layer, name)[0]
    return out
