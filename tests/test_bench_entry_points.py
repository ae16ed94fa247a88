"""The benchmark's traced entry points exist in the package.

`perfbench/tracer.py` wraps branchlab functions by module and name.  A
rename there would only surface in a traced benchmark run, so this test
loads the tracer's target list by path and resolves every entry.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    targets = load_tracer().targets()
    assert targets
    for mod_name, attr, _ in targets:
        module = importlib.import_module(f"branchlab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(module, cls_name)).get(meth)
        else:
            fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), f"{mod_name}.{attr} is not a function"
        assert fn.__module__ == module.__name__, \
            f"{mod_name}.{attr} is defined in {fn.__module__}"
