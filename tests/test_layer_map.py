"""The benchmark's layer map still matches the source tree.

``perf/layers.py`` assigns every file under ``src/repro`` to one layer,
and every benchmark workload refuses to run when a file is unmapped or a
map entry names a file that is gone.  Checking it here makes a module
added, deleted or renamed without a map entry fail the ordinary test run
instead of only the benchmark.
"""

from perf.layers import check_layer_map


def test_every_source_file_has_exactly_one_layer():
    check_layer_map()
