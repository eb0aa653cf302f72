"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import os

import pytest

from repro.mpc import MPCConfig, MPCSimulator
from repro.trees import generators as gen

#: Tree families exercised by most structural tests: (name, generator).
FAMILIES = [
    ("path", gen.path_tree),
    ("star", gen.star_tree),
    ("broom", gen.broom_tree),
    ("caterpillar", gen.caterpillar_tree),
    ("binary", gen.complete_binary_tree),
    ("spider", gen.spider_tree),
    ("two-level", gen.two_level_tree),
    ("random", lambda n: gen.random_attachment_tree(n, seed=11)),
]

FAMILY_IDS = [name for name, _ in FAMILIES]


@pytest.fixture
def simulator():
    """A small simulated MPC deployment."""
    return MPCSimulator(MPCConfig(n=512, delta=0.5))


@pytest.fixture(autouse=True, scope="session")
def _env_fault_plan_fired():
    """With ``REPRO_EXEC_FAULTS`` set, the run must show that its plan fired.

    A chaos run injects its faults through the environment into every
    process pool a config builds.  A spec whose coordinates no call reaches
    (a command that no longer exists, an ordinal past the last call) would
    inject nothing and pass silently, so the session fails unless some pool
    built from that spec consumed every entry of its plan.
    """
    spec = os.environ.get("REPRO_EXEC_FAULTS", "")
    yield
    if not spec.strip():
        return
    from repro.mpc.exec.pool import ProcessBackend

    plans = [
        backend.fault_plan
        for backend in ProcessBackend._shared.values()
        if backend._ever_built
        and backend.fault_plan is not None
        and backend.fault_plan.spec == spec
    ]
    assert plans, f"REPRO_EXEC_FAULTS={spec!r}: no process pool was built from it"
    assert any(plan.remaining() == 0 for plan in plans), (
        f"REPRO_EXEC_FAULTS={spec!r} never fired completely; left over per pool: "
        f"{[plan.to_spec() for plan in plans]}"
    )


def make_sim(n: int, delta: float = 0.5, **kw) -> MPCSimulator:
    return MPCSimulator(MPCConfig(n=max(4, n), delta=delta, **kw))
