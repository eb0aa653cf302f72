# mpclint: module=repro.mpc.exec.pool
"""Clean: the worker entry runs DP layer code and worker-side helpers only."""
import repro.mpc.exec.fixture_helper


def _worker_main(conn):
    from repro.dp.kernels.plan import LayerBatch

    return LayerBatch, conn
