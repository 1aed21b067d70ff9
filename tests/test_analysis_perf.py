"""Wall-clock floor for the analysis engine.

Absolute timings are hardware-dependent, so the floor is a generous
multiple of one measured mean: the session's shared, timed ``src/``
analysis only has to land within it — enough slack for CI-runner
variance, tight enough that a tenfold slowdown (a rule that re-walks
the tree per node, say) still fails loudly.
"""

from __future__ import annotations

#: Mean wall time of one uncached ``analyze_paths(["src"])`` over 3
#: rounds in one process (0.587, 0.656 and 0.640 s, stddev 0.036 s) on a
#: shared 2-vCPU VM under Python 3.11, with DET-003, DET-004, DET-012
#: and DET-013 as the whole rule set.
MEASURED_SRC_ANALYSIS_S = 0.627

#: CI-variance allowance over the measured mean.
_SLACK = 10.0

#: 6.3 s.
SRC_ANALYSIS_FLOOR_S = MEASURED_SRC_ANALYSIS_S * _SLACK


def test_full_repo_analysis_within_committed_floor(src_analysis):
    elapsed = src_analysis.elapsed_s
    assert src_analysis.result.errors == []
    assert elapsed <= SRC_ANALYSIS_FLOOR_S, (
        f"full-src analysis took {elapsed:.2f}s, over the {SRC_ANALYSIS_FLOOR_S:.1f}s "
        f"floor ({_SLACK}x the measured mean of {MEASURED_SRC_ANALYSIS_S:.2f}s)"
    )
