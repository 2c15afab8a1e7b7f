"""The benchmark's tracer (perfbench/tracing.py) patches fedval functions
by module and attribute name; a rename or deletion in fedval must not
leave one of those names dangling."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attribute, _, _ in tracing.LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            # The tracer patches a method in its class's own namespace.
            class_name, method = attribute.split(".")
            found = method in vars(getattr(owner, class_name, object))
        else:
            found = callable(getattr(owner, attribute, None))
        if not found:
            missing.append(f"{module_name}.{attribute}")
    assert missing == []
