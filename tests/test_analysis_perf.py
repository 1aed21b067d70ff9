"""Wall-clock floor for the analysis engine.

Absolute timings are hardware-dependent, so the floor is a generous
multiple of one measured mean: the session's shared, timed ``src/``
analysis only has to land within it — enough slack for CI-runner
variance, tight enough that an accidental quadratic blowup in the
summary fixpoint (the classic failure mode of interprocedural engines)
still fails loudly.
"""

from __future__ import annotations

#: Mean wall time of one uncached ``analyze_paths(["src"])`` (3 rounds,
#: stddev 0.34 s), as the committed baseline of the retired ``analysis``
#: micro-benchmark suite recorded it; the baseline went with the suite,
#: and the floor below keeps the bound it gave.
MEASURED_SRC_ANALYSIS_S = 5.731725186

#: CI-variance allowance over the measured mean.
_SLACK = 10.0

#: 57.3 s.
SRC_ANALYSIS_FLOOR_S = MEASURED_SRC_ANALYSIS_S * _SLACK


def test_full_repo_analysis_within_committed_floor(src_analysis):
    elapsed = src_analysis.elapsed_s
    assert src_analysis.result.errors == []
    assert elapsed <= SRC_ANALYSIS_FLOOR_S, (
        f"full-src analysis took {elapsed:.2f}s, over the {SRC_ANALYSIS_FLOOR_S:.1f}s "
        f"floor ({_SLACK}x the measured mean of {MEASURED_SRC_ANALYSIS_S:.2f}s)"
    )
