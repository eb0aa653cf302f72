"""mpclint rule modules — importing this package registers every rule.

Each module encodes one discipline and names the historical bug class of
this repository it machine-checks; docs/ANALYSIS.md is the narrative
companion.  To add a rule: create a module here, subclass
:class:`~repro.analysis.core.Rule` (or ``ProjectRule`` for cross-module
checks), decorate it with :func:`~repro.analysis.core.register`, import it
below, and give it fixture coverage in ``tests/analysis_fixtures/``.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    backend_parity,
    config_docs,
    raw_extremum,
    stale_cache,
    unbounded_wait,
    uncharged_communication,
    untraced_clock,
    worker_isolation,
)
