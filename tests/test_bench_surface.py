"""Every function the benchmark's tracer wraps exists and is callable.

perfbench/tracing.py replaces each (module, function) of its WRAPPED table
with a timing wrapper, looked up by name. Renaming or deleting one of them
breaks the traced benchmark run, so the table is checked here against the
package. The tracer module is only loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_tracing().WRAPPED


@pytest.mark.parametrize("metric,module,name", WRAPPED,
                         ids=[metric for metric, _, _ in WRAPPED])
def test_wrapped_function_is_callable(metric, module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
