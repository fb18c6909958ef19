"""The performance tooling: the bench wall-clock/call census and the
``python -m repro profile`` front end."""

from repro.__main__ import main as repro_main
from repro.analysis import bench_json, bench_wallclock


def _tiny_registry(monkeypatch):
    """Replace the bench harness registry with two cheap harnesses."""
    calls = []

    def small():
        calls.append("small")
        return sum(range(10))

    def larger():
        calls.append("larger")
        return sorted(range(100), key=lambda v: -v)

    monkeypatch.setattr(bench_json, "HARNESSES", {
        "small": ("a tiny harness", small),
        "larger": ("a slightly larger harness", larger),
    })
    return calls


def test_measure_document_shape(monkeypatch):
    calls = _tiny_registry(monkeypatch)
    baseline = {"ref": "abc1234", "python": "3.11.7",
                "total_calls": 10_000_000}
    doc = bench_wallclock.measure(baseline=baseline)
    # Each harness runs once for the clock and once for the census.
    assert calls == ["small", "small", "larger", "larger"]
    assert doc["schema"] == "repro-bench-wallclock/2"
    assert set(doc) == {"schema", "python", "harnesses", "totals",
                        "vs_baseline"}
    assert list(doc["harnesses"]) == ["small", "larger"]
    keys = {"seconds", "python_calls", "c_calls", "total_calls"}
    for entry in doc["harnesses"].values():
        assert set(entry) == keys
        assert entry["python_calls"] > 0 and entry["c_calls"] > 0
        assert entry["total_calls"] == (entry["python_calls"]
                                        + entry["c_calls"])
    totals = doc["totals"]
    assert set(totals) == keys
    assert totals["total_calls"] == sum(
        entry["total_calls"] for entry in doc["harnesses"].values())
    versus = doc["vs_baseline"]
    assert versus["ref"] == "abc1234"
    assert versus["baseline_total_calls"] == 10_000_000
    assert versus["total_calls"] == totals["total_calls"]
    assert versus["call_reduction"] == round(
        10_000_000 / totals["total_calls"], 3)


def test_measure_records_why_a_baseline_was_skipped(monkeypatch):
    _tiny_registry(monkeypatch)
    doc = bench_wallclock.measure(baseline_reason="no baseline here")
    assert doc["vs_baseline"] == {"skipped": "no baseline here"}
    assert "vs baseline: skipped (no baseline here)." in (
        bench_wallclock.markdown(doc))


def test_markdown_lists_every_harness_and_the_ratio(monkeypatch):
    _tiny_registry(monkeypatch)
    doc = bench_wallclock.measure(
        baseline={"ref": "abc1234", "python": "3.11.7",
                  "total_calls": 10_000_000})
    text = bench_wallclock.markdown(doc)
    rows = [line for line in text.splitlines() if line.startswith("| ")]
    assert rows[0].startswith("| harness |")
    assert [row.split(" | ")[0] for row in rows[1:]] == [
        "| small", "| larger", "| **total**"]
    assert "abc1234" in text
    assert "%.2fx call reduction" % doc["vs_baseline"]["call_reduction"] \
        in text


def test_census_keys(monkeypatch):
    _tiny_registry(monkeypatch)
    doc = bench_wallclock.census()
    assert set(doc) == {"schema", "python", "python_calls", "c_calls",
                        "total_calls"}
    assert doc["schema"] == bench_wallclock.CENSUS_SCHEMA
    assert doc["total_calls"] == doc["python_calls"] + doc["c_calls"]


def test_profile_runs_a_named_harness(capsys):
    assert repro_main(["profile", "table1_proxy_rpcs", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### cProfile — table1_proxy_rpcs (")
    table = [line for line in out.splitlines() if line.startswith("| ")]
    assert len(table) == 1 + 3  # header row + the top three


def test_profile_rejects_an_unknown_harness(capsys):
    assert repro_main(["profile", "no-such-harness"]) == 2
    assert "unknown harness" in capsys.readouterr().err



def test_parallel_study_ignores_only_the_run_mode(monkeypatch):
    """The single and parallel runs differ in their backend block by
    design; any simulated difference must still read as divergence."""
    from repro.analysis import tailstudy

    def fake_cell(completed):
        def run_cell(*_args, parallel=0, **_kwargs):
            mode = "parallel" if parallel else "single"
            return {"completed": completed if parallel else 7,
                    "wallclock_seconds": 1.0 + parallel,
                    "backend": {"mode": mode, "workers": parallel or None}}
        return run_cell

    monkeypatch.setattr(tailstudy, "run_cell", fake_cell(7))
    assert bench_wallclock.parallel_block()["results_identical"] is True
    monkeypatch.setattr(tailstudy, "run_cell", fake_cell(8))
    assert bench_wallclock.parallel_block()["results_identical"] is False
