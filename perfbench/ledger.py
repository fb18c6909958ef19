"""Fold a cProfile of the simulator onto the packages of ``src/repro``.

Every profiled function belongs to exactly one *layer*: the top-level
package under ``src/repro`` that defines it, or ``stdlib`` for C code,
the standard library and the benchmark's own helpers.  A few *hot
modules* are reported on their own as well, and calls that cross from
one layer into another are counted as *edges*.  cProfile counts each
resume of a generator as a call, so a simulated process that yields a
thousand times shows a thousand calls.

The fold is exhaustive: the folded self-seconds sum to the profile's
total, and a module in a package this map does not know makes the fold
fail instead of vanishing from the ledger.
"""

import math
import os

#: The layers, in report order.  Each is a package of ``src/repro``
#: except ``stdlib``.
LAYERS = ("sim", "hw", "kernel", "filter", "mem", "net", "stack", "core",
          "osserver", "world", "apps", "trace", "metrics", "analysis",
          "faults", "stdlib")

#: Modules of ``repro`` that sit outside any package, and their layer.
#: ``""`` is ``repro/__init__.py`` (the public re-exports) and
#: ``__main__`` the command-line front end.
TOP_LEVEL = {"": "analysis", "__main__": "analysis"}

#: Modules (or sub-packages) reported on their own, named by their path
#: under ``repro``.
HOT_MODULES = ("sim.process", "sim.engine", "sim.scale", "sim.wheel",
               "sim.sync", "world.router", "net.tcp", "net.checksum",
               "filter.vm", "stack.engine", "analysis.forensics",
               "trace.request")

#: Cross-layer call edges reported as ``edge.<a>-to-<b>.calls``: the
#: busiest edges of the three workloads' traced runs on the seed tree.
#: A generator resumed through ``send`` is called from ``stdlib``.
EDGES = (
    ("sim", "stdlib"), ("net", "stdlib"), ("trace", "stdlib"),
    ("analysis", "stdlib"), ("stdlib", "world"), ("stdlib", "net"),
    ("stdlib", "kernel"), ("stdlib", "osserver"), ("kernel", "stack"),
    ("stack", "net"), ("stack", "sim"), ("stack", "stdlib"),
    ("hw", "sim"), ("trace", "sim"), ("sim", "trace"), ("kernel", "sim"),
    ("osserver", "stack"), ("filter", "stdlib"), ("world", "core"),
    ("core", "stack"),
)

STDLIB = "stdlib"


def module_of(filename, package_dir):
    """Dotted module path under ``repro`` of a code object's file, or
    None when the file is not part of the package."""
    if not filename.startswith(package_dir + os.sep):
        return None
    rel = filename[len(package_dir) + 1:]
    if not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module):
    """The layer of a module path under ``repro``.

    Raises ValueError for a package the map does not know, so a new
    package cannot drop out of the ledger unnoticed.
    """
    if module in TOP_LEVEL:
        return TOP_LEVEL[module]
    package = module.split(".", 1)[0]
    if package == STDLIB or package not in LAYERS:
        raise ValueError("module repro.%s is in no ledger layer; add its "
                         "package to perfbench/ledger.py" % module)
    return package


def hot_of(module):
    """The hot module a module path belongs to, or None."""
    for hot in HOT_MODULES:
        if module == hot or module.startswith(hot + "."):
            return hot
    return None


def edge_name(src, dst):
    return "edge.%s-to-%s" % (src, dst)


def fold(stats, package_dir):
    """Fold ``pstats.Stats(...).stats`` onto layers, hot modules and
    edges.

    Returns ``{"layers": {layer: [calls, self_s]}, "hot": {module:
    [calls, self_s]}, "incl": {module: seconds}, "edges": {(a, b):
    calls}, "total_s": seconds}`` where ``total_s`` is the profile's
    total self time and ``incl`` the inclusive time of each hot module:
    the cumulative time of its functions when called from outside it
    (so time in the standard library, such as ``fractions``, that the
    module calls is included).  Raises ValueError if a function cannot
    be placed or the folded self time does not add up to the total.
    """
    layer_cache = {}

    def place(key):
        filename = key[0]
        if filename not in layer_cache:
            module = module_of(filename, package_dir)
            if module is None:
                layer_cache[filename] = (STDLIB, None)
            else:
                layer_cache[filename] = (layer_of(module), hot_of(module))
        return layer_cache[filename]

    layers = {name: [0, []] for name in LAYERS}
    hot = {name: [0, []] for name in HOT_MODULES}
    incl = {name: [] for name in HOT_MODULES}
    edges = {}
    every = []
    for key, (_cc, nc, tt, ct, callers) in stats.items():
        layer, hot_module = place(key)
        layers[layer][0] += nc
        layers[layer][1].append(tt)
        every.append(tt)
        if hot_module is not None:
            hot[hot_module][0] += nc
            hot[hot_module][1].append(tt)
            if not callers:
                incl[hot_module].append(ct)
        for caller, caller_stats in callers.items():
            caller_layer, caller_hot = place(caller)
            if hot_module is not None and caller_hot != hot_module:
                incl[hot_module].append(caller_stats[3])
            if caller_layer != layer:
                edge = (caller_layer, layer)
                edges[edge] = edges.get(edge, 0) + caller_stats[1]
    total = math.fsum(every)
    incl = {name: math.fsum(times) for name, times in incl.items()}
    for table in (layers, hot):
        for entry in table.values():
            entry[1] = math.fsum(entry[1])
    folded = math.fsum(entry[1] for entry in layers.values())
    if abs(folded - total) > 1e-9 * max(1.0, total):
        raise ValueError("folded self time %.9f s != profile total %.9f s"
                         % (folded, total))
    return {"layers": layers, "hot": hot, "incl": incl, "edges": edges,
            "total_s": total}


def metrics(folded):
    """The per-layer metrics of a fold, by name: ``<name>.calls``,
    ``<name>.self_s`` and ``<name>.share`` (of self time) for each layer
    and hot module, ``<module>.incl_share`` (inclusive time over total
    self time) for each hot module, and ``edge.<a>-to-<b>.calls`` for
    each edge in :data:`EDGES`."""
    total = folded["total_s"]

    def share(seconds):
        return (seconds / total if total else 0.0, "fraction")

    out = {}
    for table in (folded["layers"], folded["hot"]):
        for name, (calls, self_s) in table.items():
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
            out[name + ".share"] = share(self_s)
    for name, seconds in folded["incl"].items():
        out[name + ".incl_share"] = share(seconds)
    for src, dst in EDGES:
        out[edge_name(src, dst) + ".calls"] = (
            folded["edges"].get((src, dst), 0), "count")
    return out
