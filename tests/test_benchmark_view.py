"""What the benchmark in perfbench/ reads of the package.

perfbench/tracing.py wraps the functions named in its TRACED table, and the
workloads read single-class tuples by index.  A rename or a reshaped value
would make benchmark operations fail rather than a test, so both are pinned
here.  tracing.py uses only the standard library, so it is imported from its
file.
"""

import importlib
import importlib.util
from pathlib import Path

from ruledcone.lattice import B, F, SurfaceParams
from ruledcone.strata import OPEN_LABEL, label_for

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, path in _tracing().TRACED:
        obj = importlib.import_module(f"ruledcone.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, path)


def test_single_class_tuples_read_by_index():
    a = B - 2 * F
    assert a.r[0] == 0
    label = label_for(a, SurfaceParams(1))
    assert label.core[0] == a
    assert OPEN_LABEL.core == ()
