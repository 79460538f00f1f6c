"""One entry point per table and figure of the paper's evaluation.

Each function builds the workload, runs the relevant engine configurations,
and returns a dictionary with a ``title``, the ``rows`` or ``series`` the
paper reports, the raw per-query ``records``, and the ``parameters`` used.
``benchmarks/`` contains one pytest-benchmark module per entry point, and
``python -m benchmarks.paper`` prints any subset of them.
"""

from .experiments_figures import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
)
from .experiments_docstore import docstore_axes
from .experiments_external import external_sqlite
from .experiments_hashjoin import hashjoin_kernel
from .experiments_postprocess import postprocess_pipeline
from .experiments_server import multitenant_server
from .experiments_serving import concurrent_serving
from .experiments_storage import cold_vs_warm_start
from .experiments_streaming import streaming_cursor
from .experiments_tables import (
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)

#: All experiment entry points by their paper label.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "concurrent_serving": concurrent_serving,
    "multitenant_server": multitenant_server,
    "hashjoin_kernel": hashjoin_kernel,
    "postprocess_pipeline": postprocess_pipeline,
    "streaming_cursor": streaming_cursor,
    "cold_vs_warm_start": cold_vs_warm_start,
    "external_sqlite": external_sqlite,
    "docstore_axes": docstore_axes,
}

__all__ = ["EXPERIMENTS"] + sorted(EXPERIMENTS)
