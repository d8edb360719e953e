"""Every example script imports against today's API.

The examples are for readers to run, and the suite does not run them.
Importing each one resolves every name it takes from ``repro`` (its
``main()`` stays behind the ``__main__`` guard), so a deleted or renamed
API fails here instead of in a reader's terminal.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
