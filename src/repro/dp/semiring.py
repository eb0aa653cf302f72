"""Semirings used to evaluate finite-state tree DPs.

A semiring fixes how alternative partial solutions are combined
(``plus`` — e.g. maximum for optimisation, addition for counting) and how
independent contributions are merged (``times`` — e.g. addition of weights,
multiplication of counts).  ``zero`` is the annihilating "infeasible" value
and ``one`` the neutral value.

Optimisation semirings are *selective*: ``plus`` picks one of its arguments,
which is what allows the traceback that produces an actual solution (the
edge labels).  Counting semirings are not selective, so problems over them
are evaluated bottom-up only (the answer is the root value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

__all__ = [
    "Semiring",
    "MAX_PLUS",
    "MIN_PLUS",
    "SUM_PRODUCT",
    "counting_mod",
]


@dataclass(frozen=True)
class Semiring:
    """An algebraic structure ``(plus, times, zero, one)`` with a name.

    Attributes
    ----------
    name:
        Human-readable name used in reports and reprs.
    plus:
        Combines alternative solutions (max, min, +, ...).
    times:
        Combines independent sub-solutions (+, *, ...).
    zero:
        Identity of ``plus`` and annihilator of ``times`` ("infeasible").
    one:
        Identity of ``times`` ("empty solution").
    selective:
        True when ``plus`` always returns one of its arguments; required for
        traceback / solution extraction.
    prefer:
        For selective semirings: ``prefer(a, b)`` is True when ``a`` is
        strictly better than ``b`` (used for deterministic argmax).
    kernel:
        Name of the dense array kernel evaluating this semiring
        (``"min-plus"``, ``"max-plus"``, ``"sum-product"`` or ``"counting"``;
        see :mod:`repro.dp.kernels`).  ``None`` marks an exotic semiring the
        vectorized backend cannot represent; such problems always run on the
        scalar path.
    modulus:
        The modulus of a ``"counting"`` kernel semiring (``None`` otherwise).
    """

    name: str
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    selective: bool
    prefer: Callable[[Any, Any], bool] = None  # type: ignore[assignment]
    kernel: str = None  # type: ignore[assignment]
    modulus: int = None  # type: ignore[assignment]

    def is_zero(self, x: Any) -> bool:
        return x == self.zero

    def sum(self, values) -> Any:
        acc = self.zero
        for v in values:
            acc = self.plus(acc, v)
        return acc

    def product(self, values) -> Any:
        acc = self.one
        for v in values:
            acc = self.times(acc, v)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Semiring({self.name})"


_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _max_plus_times(a, b):
    if a == _NEG_INF or b == _NEG_INF:
        return _NEG_INF
    return a + b


def _min_plus_times(a, b):
    if a == _POS_INF or b == _POS_INF:
        return _POS_INF
    return a + b


#: Maximisation problems (maximum-weight independent set, matching, max-SAT).
MAX_PLUS = Semiring(
    name="max-plus",
    plus=max,
    times=_max_plus_times,
    zero=_NEG_INF,
    one=0.0,
    selective=True,
    prefer=lambda a, b: a > b,
    kernel="max-plus",
)

#: Minimisation problems (minimum dominating set, vertex cover, sum coloring).
MIN_PLUS = Semiring(
    name="min-plus",
    plus=min,
    times=_min_plus_times,
    zero=_POS_INF,
    one=0.0,
    selective=True,
    prefer=lambda a, b: a < b,
    kernel="min-plus",
)

#: Plain counting / probability propagation.
SUM_PRODUCT = Semiring(
    name="sum-product",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0,
    one=1,
    selective=False,
    kernel="sum-product",
)


def _add_mod(k: int, a: Any, b: Any) -> Any:
    return (a + b) % k


def _mul_mod(k: int, a: Any, b: Any) -> Any:
    return (a * b) % k


def counting_mod(k: int) -> Semiring:
    """Counting modulo ``k`` (used for counting matchings mod k, Table 1).

    ``plus``/``times`` are module-level functions bound to ``k``, so the
    semiring — and every problem holding one — pickles to exec workers.
    """
    if k < 2:
        raise ValueError("modulus must be at least 2")
    return Semiring(
        name=f"count-mod-{k}",
        plus=partial(_add_mod, k),
        times=partial(_mul_mod, k),
        zero=0,
        one=1 % k,
        selective=False,
        kernel="counting",
        modulus=k,
    )
