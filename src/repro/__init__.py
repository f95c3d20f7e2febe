"""SpKAdd reproduction: parallel algorithms for adding k sparse matrices.

Reproduction of Hussain, Abhishek, Buluç, Azad — *Parallel Algorithms
for Adding a Collection of Sparse Matrices* (arXiv:2112.10223).

Quickstart::

    import repro
    from repro.generators import erdos_renyi_collection

    mats = erdos_renyi_collection(m=4096, n=64, d=16, k=32, seed=0)
    res = repro.spkadd(mats, method="hash")
    B = res.matrix                       # the sum, CSC format
    print(res.stats.summary())

Subpackages
-----------
``repro.formats``      CSC/CSR/COO sparse storage (built from scratch)
``repro.generators``   ER, R-MAT, protein-surrogate and workload generators
``repro.core``         the SpKAdd algorithms (Algorithms 1-8 + extensions)
``repro.kernels``      accumulation backends (instrumented probing / fast compiled kernel)
``repro.parallel``     column-parallel execution and scheduling
``repro.machine``      machine specs, cache simulation, calibrated cost model
``repro.distributed``  simulated sparse SUMMA SpGEMM (the paper's application)
``repro.experiments``  drivers regenerating every paper table and figure
``repro.serve``        SpKAdd-as-a-service: asyncio gateway with
                       micro-batching, admission control, and
                       deadline-aware backpressure
"""

from repro.core.api import SpKAddResult, available_methods, spkadd
from repro.core.stats import KernelStats
from repro.distributed import ExecutionPlan, summa_spgemm
from repro.formats import CSCMatrix, CSRMatrix, COOMatrix
from repro.kernels import available_backends
from repro.parallel.executor import submit_spkadd
from repro.parallel.pools import shutdown_pools
from repro.parallel.resilience import (
    DeadlineExceeded,
    ExecutorUnusable,
    PoolBootTimeout,
    ResiliencePolicy,
    RetriesExhausted,
)
from repro.parallel.shm import sweep_orphans
from repro.serve import (
    GatewayClient,
    GatewayConfig,
    GatewayError,
    RequestInvalid,
    ShedError,
    start_in_thread,
)

__version__ = "1.5.0"

__all__ = [
    "SpKAddResult",
    "available_methods",
    "available_backends",
    "spkadd",
    "submit_spkadd",
    "ExecutionPlan",
    "summa_spgemm",
    "shutdown_pools",
    "sweep_orphans",
    "ResiliencePolicy",
    "DeadlineExceeded",
    "ExecutorUnusable",
    "PoolBootTimeout",
    "RetriesExhausted",
    "KernelStats",
    "CSCMatrix",
    "CSRMatrix",
    "COOMatrix",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "RequestInvalid",
    "ShedError",
    "start_in_thread",
    "__version__",
]
