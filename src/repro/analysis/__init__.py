"""Project-specific static analysis for the ANT/AGFW reproduction.

One paper-derived rule family runs over the AST of every module:

* **DET** — determinism bugs that every run on one machine makes the
  same way, so no comparison of runs can see them: wall-clock reads,
  float sim-time equality, filesystem order and unstable numpy sorts.

The rest of the determinism contract — a trace is a pure function of
the config and seed — is checked at run time: the test suite compares
full-record trace digests across hash seeds, processes and pool sizes
(``tests/test_determinism.py``).  The anonymity invariant — no node
identity or MAC address on the air (Zhou & Yow Sec. 3) — is checked on
the air (``on_air_audit`` in ``tests/conftest.py``).

Run ``python -m repro.analysis [paths]`` (or ``repro-lint`` after an
editable install); suppress a deliberate violation with
``# repro: noqa[RULE-ID]`` on the offending line.  The package lints
itself — it is part of the default ``src`` target.
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    register,
    registry,
)
from repro.analysis.engine import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "analyze_paths",
    "register",
    "registry",
]
