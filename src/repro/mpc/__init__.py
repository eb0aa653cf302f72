"""MPC (Massively Parallel Computation) simulation substrate.

The paper analyses algorithms in the MPC model of Karloff, Suri and
Vassilvitskii: the input of ``n`` words is distributed over ``Theta(n^(1-delta))``
machines with ``Theta(n^delta)`` words of local memory each, computation
proceeds in synchronous communication rounds, and in each round a machine may
send and receive at most ``Theta(n^delta)`` words.

This package provides a deterministic, round-accounted simulator of that
model:

* :class:`~repro.mpc.config.MPCConfig` fixes ``delta`` and the capacity
  constants.
* :class:`~repro.mpc.simulator.MPCSimulator` owns the machines, executes
  supersteps, counts rounds, and tracks communication volume and peak
  per-machine memory.
* :class:`~repro.mpc.darray.DistributedArray` is a partitioned collection of
  records with the standard MPC primitives (sample sort, group-by-key, join,
  prefix sums, broadcast, reduce), each implemented as a constant number of
  genuine supersteps.
* :mod:`~repro.mpc.treeops` implements the distributed tree subroutines the
  clustering construction relies on (depth via pointer doubling, capped
  subtree gathering, degree-2 path positions), all converging in
  ``O(log D)`` doubling iterations.  Each has two backends selected by
  ``MPCConfig.treeops_backend``: the record-level reference path and the
  vectorized integer-array path of :mod:`~repro.mpc.treeops_array`
  (bit-identical outputs and round accounting, evaluated driver-side).
* :mod:`~repro.mpc.words` prices records in machine words; the
  ``MPCConfig.accounting`` mode chooses between the exact reference walker
  and the structural fast sizer (default).
"""

from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.simulator import MPCSimulator, RoundStats
from repro.mpc.darray import DistributedArray

__all__ = [
    "MPCConfig",
    "Machine",
    "MPCSimulator",
    "RoundStats",
    "DistributedArray",
]
