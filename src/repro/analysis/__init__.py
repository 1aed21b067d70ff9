"""Project-specific static analysis for the ANT/AGFW reproduction.

One paper-derived rule family runs over the AST of every module:

* **DET** — determinism: every run must be bit-reproducible from one
  master seed through :class:`repro.sim.rng.RngRegistry` (global
  ``random`` use, unseeded ``Random()``, wall-clock reads, float
  sim-time equality, set-iteration ordering, and unordered iteration
  that reaches the event scheduler across modules).

The anonymity invariant — no node identity or MAC address on the air
(Zhou & Yow Sec. 3) — is not a lint rule: the test suite audits every
frame its runs transmit (``on_air_audit`` in ``tests/conftest.py``).

Run ``python -m repro.analysis [paths]`` (or ``repro-lint`` after an
editable install); suppress a deliberate violation with
``# repro: noqa[RULE-ID]`` on the offending line.  The package lints
itself — it is part of the default ``src`` target.
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    register,
    registry,
)
from repro.analysis.engine import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "analyze_paths",
    "register",
    "registry",
]
