"""The quick-bench record: deterministic per-experiment fingerprints."""

from repro.bench.quick import run_quick


def test_quick_record_carries_deterministic_event_counts():
    first, second = (
        run_quick(names=["table1", "fig4"], print_report=False)["experiments"]
        for _ in range(2)
    )
    for name in ("table1", "fig4"):
        assert first[name]["events"] > first[name]["sim_ops"]
        assert first[name]["events"] == second[name]["events"]
        assert first[name]["virtual_ms"] == second[name]["virtual_ms"]
