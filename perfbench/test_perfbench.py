"""Self-tests of the benchmark: the per-layer ledger, the metric list in
``BENCHMARK.json`` and the pinned references.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import cProfile
import json
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = os.path.join(os.path.dirname(HERE), "src", "repro")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(PACKAGE_DIR))

import ledger  # noqa: E402
import run  # noqa: E402


def package_modules():
    for dirpath, _dirnames, filenames in os.walk(PACKAGE_DIR):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                yield ledger.module_of(path, PACKAGE_DIR)


def test_every_module_maps_to_exactly_one_layer():
    modules = list(package_modules())
    assert len(modules) > 50
    for module in modules:
        assert module is not None
        layer = ledger.layer_of(module)
        assert layer in ledger.LAYERS and layer != ledger.STDLIB, module


def test_every_package_is_a_layer():
    packages = {name for name in os.listdir(PACKAGE_DIR)
                if os.path.isfile(os.path.join(PACKAGE_DIR, name,
                                               "__init__.py"))}
    assert packages == set(ledger.LAYERS) - {ledger.STDLIB}


def test_every_hot_module_exists():
    modules = set(package_modules())
    for hot in ledger.HOT_MODULES:
        assert any(m == hot or m.startswith(hot + ".") for m in modules), hot


def test_edges_join_known_layers():
    assert len(set(ledger.EDGES)) == len(ledger.EDGES)
    for src, dst in ledger.EDGES:
        assert src in ledger.LAYERS and dst in ledger.LAYERS and src != dst


def test_unknown_package_is_refused():
    with pytest.raises(ValueError):
        ledger.layer_of("shard.router")


def test_fold_sums_to_the_profile_total():
    from repro.analysis.experiments import run_crossings

    profiler = cProfile.Profile()
    profiler.enable()
    run_crossings("library-shm-ipf")
    profiler.disable()
    stats = pstats.Stats(profiler)
    folded = ledger.fold(stats.stats, PACKAGE_DIR)
    assert folded["total_s"] == pytest.approx(stats.total_tt, rel=1e-9)
    layer_sum = sum(self_s for _calls, self_s in folded["layers"].values())
    assert layer_sum == pytest.approx(folded["total_s"], rel=1e-9)
    calls = sum(nc for (_cc, nc, _tt, _ct, _callers) in stats.stats.values())
    assert sum(c for c, _s in folded["layers"].values()) == calls
    assert folded["layers"]["sim"][0] > 0
    metrics = ledger.metrics(folded)
    share = sum(metrics[layer + ".share"][0] for layer in ledger.LAYERS)
    assert share == pytest.approx(1.0)


def test_fold_refuses_a_function_outside_every_layer():
    path = os.path.join(PACKAGE_DIR, "shard", "router.py")
    stats = {(path, 1, "route"): (1, 1, 0.5, 0.5, {})}
    with pytest.raises(ValueError):
        ledger.fold(stats, PACKAGE_DIR)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    empty = ledger.fold({}, PACKAGE_DIR)
    traced = {name: unit for name, (_v, unit)
              in ledger.metrics(empty).items()}
    traced.update({name: "us" if name == "hw.cpu.busy_us" else "count"
                   for name in run.COUNTS})
    traced["trace_overhead_x"] = "x"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert len(spec["per_layer"]) == len(traced) <= 128
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "frames_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == {
        "paper_tables", "star_scale", "wan_forensics"}


def test_every_pinned_seed_has_a_reference():
    for workload, seeds in run.SEEDS.items():
        for group in seeds.values():
            for seed in group:
                assert os.path.exists(run.ref_path(workload, seed))
