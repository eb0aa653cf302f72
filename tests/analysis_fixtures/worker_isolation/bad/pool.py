# mpclint: module=repro.mpc.exec.pool
"""True positive: the worker entry drags in driver-only modules."""
import repro.mpc.exec.fixture_helper
from repro.mpc.darray import DArray


def _worker_main(conn):
    from repro.dp.engine import DPEngine  # a lazy import still runs in the worker

    return DPEngine, DArray, conn
