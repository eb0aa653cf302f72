"""Vectorized semiring kernels for the finite-state DP hot path.

The paper's O(1)-round engine (Section 5) pushes all real computation into
per-cluster local solves, so the reproduction's wall-clock speed is dominated
by the per-cluster tables of :class:`~repro.dp.local_solver.FiniteStateClusterSolver`.
This package replaces its pure-Python dict-of-dicts tables with dense NumPy
arrays indexed by state id:

* :class:`~repro.dp.kernels.statespace.StateSpace` — a bijection between a
  problem's hashable states and contiguous integer ids, plus codecs between
  dict tables and dense arrays.
* :mod:`~repro.dp.kernels.semiring_kernels` — per-semiring array operations
  (min-plus, max-plus, sum-product, counting modulo k) implemented as batched
  broadcasts and axis reductions, with arg-reductions for backpointers.
* :class:`~repro.dp.kernels.tensors.ProblemTensors` — dense init vectors,
  transition tensors ``T[acc, child_state, acc']`` and finalize matrices
  ``F[acc, state]`` enumerated once from a :class:`~repro.dp.problem.FiniteStateDP`
  and cached under problem-provided keys.
* :mod:`~repro.dp.kernels.plan` — the problem-independent, struct-of-arrays
  compile of every cluster layer (:class:`~repro.dp.kernels.plan.LayerPlan`),
  built once per clustering and handed to solvers as row selections
  (:class:`~repro.dp.kernels.plan.LayerBatch`).
* :class:`~repro.dp.kernels.dense_local.DenseClusterKernel` — the layer
  solver: both DP passes of a whole batch as per-level array programs, with
  every hole state of an indegree-one cluster carried at once (the scalar
  path walks the element tree once per hole state) and backpointers kept in
  per-layer arrays for the top-down pass.

Tie-breaking is canonical (state-id order) in both the dense kernels and the
scalar fallback, and float operations associate identically, so the two
backends produce bit-identical objective values and labels; the test-suite
asserts this across the full Table-1 registry.
"""

from repro.dp.kernels.dense_local import DenseClusterKernel
from repro.dp.kernels.semiring_kernels import (
    CountingModKernel,
    MaxPlusKernel,
    MinPlusKernel,
    SemiringKernel,
    SumProductKernel,
    kernel_for,
)
from repro.dp.kernels.statespace import StateSpace, summary_as_dict
from repro.dp.kernels.tensors import ProblemTensors, UndeclaredStateError

__all__ = [
    "CountingModKernel",
    "DenseClusterKernel",
    "MaxPlusKernel",
    "MinPlusKernel",
    "ProblemTensors",
    "SemiringKernel",
    "StateSpace",
    "SumProductKernel",
    "UndeclaredStateError",
    "kernel_for",
    "summary_as_dict",
]
