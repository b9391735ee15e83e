"""The traced benchmark pass can still wrap every method it names.

``perfbench/spans.py`` swaps each ``TARGETS`` method of the program's
classes for a timing wrapper and raises when a method is not defined on
the named class itself (a subclass inheriting it would be patched at
the wrong level).  A refactor that renames, inlines or moves one of
those methods would otherwise break only the benchmark's traced run;
this test makes it fail with the rest of the suite.  The module is
loaded read-only from its file and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "module_name, class_name, methods",
    TARGETS,
    ids=[f"{module}.{cls or '<module>'}" for module, cls, _ in TARGETS],
)
def test_target_defined_on_its_class(module_name, class_name, methods):
    module = importlib.import_module(module_name)
    if class_name is None:
        missing = [name for name in methods if not callable(getattr(module, name, None))]
    else:
        owner = getattr(module, class_name)
        missing = [name for name in methods if name not in owner.__dict__]
    assert missing == [], f"{class_name or module_name} no longer defines {missing}"
