"""The memory a trace keeps and a run peaks at, counted by tracemalloc.

tracemalloc counts numpy's buffers as well as Python's objects, and an
allocation's size does not depend on where the allocator puts it, so the
counts repeat from run to run where peak RSS moves by tenths of a MB.
"""
import dataclasses
import os
import tracemalloc

from fixedlab import load_config, make_family, multi_map_run

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_a_five_map_trace_keeps_its_records_as_columns():
    """The shipped five-map run keeps 10,001 records. As TraceSteps of
    Python floats and tuples they took about 590 B a record and the run
    peaked at about 6.1 MB; as float64 columns, 11 values of 8 B a record,
    they take about 91 B and the run peaks at about 1.6 MB."""
    cfg = load_config(os.path.join(CONFIGS, "five_scalings_tent.json"))
    fam = make_family(cfg.mappings, cfg.plan)
    # a short run first, so that nothing imported or cached on a first call counts
    multi_map_run(fam, cfg.schedule, cfg.x0, dataclasses.replace(cfg.iteration, max_iters=100))
    tracemalloc.start()
    try:
        t = multi_map_run(fam, cfg.schedule, cfg.x0, cfg.iteration)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t.records) == 10_001
    assert kept / len(t.records) <= 128
    assert peak <= 2.5e6
