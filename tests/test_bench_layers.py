"""Every function the benchmark's per-layer tracer wraps must still exist:
bench/layers.py names them as (module, attribute) pairs and only records a
name it cannot find, so a cleanup that deletes one would drop its layer
from the benchmark without failing."""

import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).parents[1] / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_traced_layers_resolve():
    missing = []
    for module, attr in layers.COUNTED + layers.TIMED + layers.SAMPLING:
        owner = importlib.import_module(f"hqmoduli.{module}")
        if attr == "QMatrix.__matmul__":
            owner, attr = owner.QMatrix, "__matmul__"
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{attr}")
    assert not missing
