"""Wall-clock and interpreter-call tracking for the bench suite.

``BENCH.json`` pins the *simulated* metrics (deterministic, drift
gated); this runner tracks what the simulator costs to run.  Each bench
harness runs twice — once clean for wall clock, once under
``sys.setprofile`` for a call census (the profiler's overhead must not
pollute the timing).

The census counts both ``call`` events (every Python function entry
*and* every generator-frame resume — the coroutine simulator's unit of
work) and ``c_call`` events (builtins such as ``heappush`` and
``deque.append``), so ``total_calls`` is the full interpreter dispatch
volume.  Call counts are deterministic for a given interpreter; wall
clock is not (the CI step reports it without gating on it)::

    python -m repro.analysis.bench_wallclock -o BENCH_WALLCLOCK.json

**Measuring against an older tree.**  The ``vs_baseline`` block
compares the census against a frozen measurement of an older tree:

* ``--baseline-json PATH`` — output of ``--census-only`` run against a
  checkout of the base commit **with the same interpreter** (CI does
  this with ``git worktree``; this file runs unmodified against the old
  tree, falling back to ``bench_json.collect()`` where the harness
  registry does not exist yet).
* Otherwise ``benchmarks/wallclock_baseline.json`` — a committed
  pinned measurement, used only when the running interpreter's
  major.minor matches the one that produced it (call counts shift
  between interpreter versions).

``--min-call-reduction X`` gates on the ``vs_baseline`` ratio and
fails loudly when no usable baseline is available.

``--parallel-study`` appends a single-vs-parallel wall-clock comparison
of one seeded two-site WAN tail-study cell on the island backend
(:mod:`repro.sim.parallel`), asserting the two runs' simulated results
are identical before reporting the speedup.  Speedup needs real cores:
on a single-CPU machine the ratio honestly reports ~1x.
"""

import argparse
import json
import os
import sys
import time

from repro.analysis import bench_json

SCHEMA = "repro-bench-wallclock/2"
CENSUS_SCHEMA = "repro-bench-census/1"

#: Committed pinned baseline (relative to the repository root).
PINNED_BASELINE = os.path.join("benchmarks", "wallclock_baseline.json")

#: The parallel study's cell: a two-site WAN (one long-haul cut, so two
#: islands of equal weight), every host a client, moderate load.
PARALLEL_TOPOLOGY = dict(kind="wan", hosts=48, seed=11, hosts_per_edge=8,
                         spines=2, sites=2, router_speedup=8.0)
PARALLEL_WORKLOAD = dict(proto="udp", seed=11, clients=0, fanout=2,
                         request_bytes=64, reply_bytes=200,
                         size_dist="fixed", window_us=400_000.0,
                         drain_us=300_000.0)
PARALLEL_LOAD = 0.15


def _harnesses():
    """The bench harnesses as ``(name, callable)`` pairs.

    Falls back to one whole-suite pseudo-harness on trees that predate
    the ``HARNESSES`` registry (the census-only baseline run).
    """
    registry = getattr(bench_json, "HARNESSES", None)
    if registry is not None:
        return [(name, harness)
                for name, (_message, harness) in registry.items()]
    return [("bench_suite", lambda: bench_json.collect())]


def _count_calls(fn):
    """Run ``fn`` under sys.setprofile; returns (python_calls, c_calls).

    ``call`` events include generator resumes — the simulator's unit of
    work; ``c_call`` events cover builtins (heap/deque traffic, struct
    packing, ``len``).
    """
    counts = [0, 0]

    def profiler(_frame, event, _arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def _measure_harness(harness):
    """(seconds, python_calls, c_calls) for one harness."""
    begin = time.perf_counter()
    harness()
    seconds = time.perf_counter() - begin
    py_calls, c_calls = _count_calls(harness)
    return seconds, py_calls, c_calls


def census():
    """One whole-suite call census.

    This is the half that must keep working against older trees:
    CI checks out the base commit in a worktree and runs this file
    there with ``--census-only`` to produce the baseline honestly, with
    the same interpreter that measures the optimized tree.
    """
    py_total = 0
    c_total = 0
    for _name, harness in _harnesses():
        py_calls, c_calls = _count_calls(harness)
        py_total += py_calls
        c_total += c_calls
    return {
        "schema": CENSUS_SCHEMA,
        "python": sys.version.split()[0],
        "python_calls": py_total,
        "c_calls": c_total,
        "total_calls": py_total + c_total,
    }


def load_baseline(path=None):
    """The frozen census to compare against, or (None, reason).

    An explicit ``path`` is trusted (CI measured it with this very
    interpreter).  The committed pinned file is only used when the
    running interpreter's major.minor matches the recorded one.
    """
    if path is not None:
        with open(path) as handle:
            return json.load(handle), None
    if not os.path.exists(PINNED_BASELINE):
        return None, "no baseline: %s not found" % PINNED_BASELINE
    with open(PINNED_BASELINE) as handle:
        baseline = json.load(handle)
    ours = sys.version.split()[0].rsplit(".", 1)[0]
    theirs = str(baseline.get("python", "")).rsplit(".", 1)[0]
    if ours != theirs:
        return None, ("pinned baseline measured on Python %s; running %s "
                      "(call counts are interpreter-specific) — pass "
                      "--baseline-json with a same-interpreter census"
                      % (baseline.get("python"), sys.version.split()[0]))
    return baseline, None


def measure(log=None, parallel_study=False, baseline=None,
            baseline_reason=None):
    """Run every bench harness; return the document."""
    def say(message):
        if log is not None:
            log(message)

    doc = {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "harnesses": {},
    }
    total = {"seconds": 0.0, "python_calls": 0, "c_calls": 0}
    for name, harness in _harnesses():
        say("%s ..." % name)
        seconds, py_calls, c_calls = _measure_harness(harness)
        doc["harnesses"][name] = {"seconds": round(seconds, 3),
                                  "python_calls": py_calls,
                                  "c_calls": c_calls,
                                  "total_calls": py_calls + c_calls}
        total["seconds"] += seconds
        total["python_calls"] += py_calls
        total["c_calls"] += c_calls
    total["seconds"] = round(total["seconds"], 3)
    total["total_calls"] = total["python_calls"] + total["c_calls"]
    doc["totals"] = total
    if baseline is not None:
        doc["vs_baseline"] = {
            "ref": baseline.get("ref"),
            "python": baseline.get("python"),
            "baseline_total_calls": baseline["total_calls"],
            "total_calls": total["total_calls"],
            "call_reduction": round(
                baseline["total_calls"] / max(1, total["total_calls"]), 3),
        }
    elif baseline_reason is not None:
        doc["vs_baseline"] = {"skipped": baseline_reason}
    if parallel_study:
        say("parallel study: 2-site WAN cell, single vs --parallel 2 ...")
        doc["parallel_study"] = parallel_block()
    return doc


def parallel_block():
    """Single-vs-parallel wall clock on one seeded WAN tail-study cell."""
    from repro.analysis import tailstudy

    runs = {}
    for label, nprocs in (("single_process", 0), ("parallel_2", 2)):
        begin = time.perf_counter()
        cell = tailstudy.run_cell(PARALLEL_TOPOLOGY, PARALLEL_WORKLOAD,
                                  "mach25", PARALLEL_LOAD,
                                  parallel=nprocs)
        seconds = time.perf_counter() - begin
        # Wall clock and the backend block (which names the run mode)
        # differ by design; everything simulated must not.
        cell.pop("wallclock_seconds", None)
        cell.pop("backend", None)
        runs[label] = {"seconds": round(seconds, 3), "cell": cell}
    identical = (json.dumps(runs["single_process"]["cell"], sort_keys=True)
                 == json.dumps(runs["parallel_2"]["cell"], sort_keys=True))
    return {
        "topology": PARALLEL_TOPOLOGY,
        "load": PARALLEL_LOAD,
        "single_process_seconds": runs["single_process"]["seconds"],
        "parallel_2_seconds": runs["parallel_2"]["seconds"],
        "speedup": round(runs["single_process"]["seconds"]
                         / max(1e-9, runs["parallel_2"]["seconds"]), 3),
        "results_identical": identical,
        "completed": runs["single_process"]["cell"]["completed"],
    }


def markdown(doc):
    """A step-summary table for CI."""
    lines = [
        "### Bench wall-clock and interpreter-call census",
        "",
        "| harness | seconds | Python calls | C calls | total calls |",
        "|---|---|---|---|---|",
    ]
    rows = list(doc["harnesses"].items()) + [("**total**", doc["totals"])]
    for name, entry in rows:
        lines.append("| %s | %.3f | %s | %s | %s |" % (
            name, entry["seconds"],
            "{:,}".format(entry["python_calls"]),
            "{:,}".format(entry["c_calls"]),
            "{:,}".format(entry["total_calls"])))
    versus = doc.get("vs_baseline")
    if versus is not None:
        lines.append("")
        if "skipped" in versus:
            lines.append("vs baseline: skipped (%s)." % versus["skipped"])
        else:
            lines.append(
                "**vs baseline** (%s, Python %s): %s calls then, %s now "
                "— **%.2fx call reduction**."
                % (versus.get("ref") or "pinned", versus.get("python"),
                   "{:,}".format(versus["baseline_total_calls"]),
                   "{:,}".format(versus["total_calls"]),
                   versus["call_reduction"]))
    study = doc.get("parallel_study")
    if study is not None:
        lines += [
            "",
            "Parallel island backend (2-site WAN, %d hosts, load %.2f): "
            "single %.3f s, `--parallel 2` %.3f s — **%.2fx speedup**, "
            "results identical: %s."
            % (study["topology"]["hosts"], study["load"],
               study["single_process_seconds"],
               study["parallel_2_seconds"], study["speedup"],
               study["results_identical"]),
        ]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.bench_wallclock",
        description="Wall-clock + interpreter-call census of the bench "
                    "suite, against a frozen baseline census.")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the JSON document here "
                             "(default: stdout)")
    parser.add_argument("--markdown", action="store_true",
                        help="print a markdown summary to stdout "
                             "(for CI step summaries)")
    parser.add_argument("--census-only", action="store_true",
                        help="one whole-suite census (runs against old "
                             "trees; produces a --baseline-json document)")
    parser.add_argument("--baseline-json", metavar="PATH", default=None,
                        help="a --census-only document measured on the "
                             "base commit with this interpreter "
                             "(overrides the pinned baseline)")
    parser.add_argument("--parallel-study", action="store_true",
                        help="append a single-vs-parallel wall-clock "
                             "comparison of one WAN tail-study cell")
    parser.add_argument("--min-call-reduction", type=float, default=None,
                        metavar="X",
                        help="exit 1 unless the vs-baseline call "
                             "reduction is at least X (deterministic "
                             "per interpreter, so it can gate CI; wall "
                             "clock never does)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress messages")
    args = parser.parse_args(argv)

    if args.census_only:
        doc = census()
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.output, file=sys.stderr)
        else:
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        return 0

    log = None if args.quiet else (
        lambda message: print(message, file=sys.stderr))
    baseline, reason = load_baseline(args.baseline_json)
    doc = measure(log=log, parallel_study=args.parallel_study,
                  baseline=baseline, baseline_reason=reason)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output, file=sys.stderr)
    if args.markdown:
        print(markdown(doc))
    elif not args.output:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")

    if args.min_call_reduction is not None:
        versus = doc.get("vs_baseline")
        if versus is None or "call_reduction" not in versus:
            print("bench_wallclock: --min-call-reduction needs a usable "
                  "baseline (%s)"
                  % (versus or {}).get("skipped", "none found"),
                  file=sys.stderr)
            return 1
        ratio = versus["call_reduction"]
        if ratio < args.min_call_reduction:
            print("bench_wallclock: call reduction %.3fx vs baseline is "
                  "below the required %.3fx"
                  % (ratio, args.min_call_reduction), file=sys.stderr)
            return 1
        print("bench_wallclock: call reduction %.3fx vs baseline "
              "(>= %.3fx required)" % (ratio, args.min_call_reduction),
              file=sys.stderr)
    study = doc.get("parallel_study")
    if study is not None and not study["results_identical"]:
        print("bench_wallclock: parallel study results DIVERGED",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
