"""perf — the repo benchmark: host cost of the simulator, end to end and by layer.

``python -m perf.run`` measures five pinned workloads (see
:mod:`perf.workloads`); ``BENCHMARK.json`` at the repo root is the
contract a driver runs it under.  The package reads the program under
``src/repro`` and never edits it: tracing is installed from here
(:mod:`perf.spans`, :mod:`perf.layers`).

Importing the package puts ``src/`` on ``sys.path`` so the benchmark runs
from a bare checkout (``python3 -m perf.run``) as well as with
``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))
