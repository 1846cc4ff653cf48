"""The benchmark's span tracer wraps names that exist.

``perfbench/spans.py`` looks its targets up by name and skips any it
cannot find, so a rename in the package would only show up as a
per-layer metric gone quiet.  The tables are read from the file's
source, without importing or touching it.
"""
import ast
import importlib
import inspect
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_tables():
    tables = {}
    for node in ast.parse(SPANS_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "CONSTRUCTORS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_span_target_exists():
    tables = span_tables()
    assert set(tables) == {"SPANS", "CONSTRUCTORS"}
    for table in tables.values():
        for layer, names in table.items():
            module = importlib.import_module(f"dyntarget.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"dyntarget.{layer}.{name}"
    for layer, names in tables["CONSTRUCTORS"].items():
        module = importlib.import_module(f"dyntarget.{layer}")
        assert all(inspect.isclass(getattr(module, name)) for name in names)


def test_span_counters_find_their_arguments():
    # the counters read these arguments by position
    from dyntarget import bench, sim

    assert list(inspect.signature(sim.run_episode).parameters)[4] == "policy"
    assert list(inspect.signature(bench._dp_for).parameters)[2] == "cache_dir"


def test_the_table_counter_reads_an_array():
    # the dp.build_dp_table counter reads .values.size and .values.nbytes
    import numpy as np
    from dyntarget import EnvStrip, build_dp_table

    table = build_dp_table(EnvStrip(np.zeros((3, 4), dtype=np.uint8)))
    assert isinstance(table.values, np.ndarray)
