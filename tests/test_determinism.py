"""The determinism contract, checked at run time.

A trace is a pure function of the config: every record's time,
category, node and ``data`` fields.  Two comparisons here check it on
the fixed configs of :mod:`tests.trace_digest`, by full-record digest:

* two fresh interpreters under two ``PYTHONHASHSEED``\\ s, the second
  running the list in reverse, so each config follows other runs there;
* every config run twice more in this process, back to back after
  whatever the session ran before, against the fresh interpreters.

The third, across pool sizes, is
``tests/test_campaign.py::test_store_and_report_identical_across_jobs``:
it runs the smoke matrix of ``examples/campaigns/smoke.toml`` with one
and with three pool processes and compares every stored record byte
for byte.

Hash-seed-dependent iteration order, the process-global ``random`` and
``numpy.random`` streams, wall-clock reads, interpreter addresses,
process ids and state a module carries from one run into the next all
show up as a digest difference here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from tests.trace_digest import CONFIGS, digests

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``PYTHONHASHSEED`` of each fresh interpreter, and the order it runs
#: the configs in.
_INTERPRETERS = (("1", list(CONFIGS)), ("42", list(CONFIGS)[::-1]))


@pytest.fixture(scope="module")
def fresh_digests() -> List[Dict[str, str]]:
    """The config digests from each of :data:`_INTERPRETERS`, run side by side."""
    python_path = [str(REPO_ROOT / "src"), str(REPO_ROOT), os.environ.get("PYTHONPATH", "")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.trace_digest", *order],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(p for p in python_path if p),
            },
        )
        for hash_seed, order in _INTERPRETERS
    ]
    try:
        outputs = [proc.communicate(timeout=600) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    return [json.loads(out) for out, _ in outputs]


@pytest.mark.parametrize("name", CONFIGS)
def test_trace_is_the_same_in_fresh_interpreters(fresh_digests, name):
    first, second = fresh_digests
    assert first[name] == second[name], (
        f"{name}: the trace differs between hash seeds "
        f"{_INTERPRETERS[0][0]} and {_INTERPRETERS[1][0]}"
    )


def test_back_to_back_runs_trace_like_fresh_ones(fresh_digests):
    """No state outlives a run: every config, run twice in this process
    after the rest of the session (the list in reverse, then in order),
    traces as it does in a fresh interpreter."""
    for order in (list(CONFIGS)[::-1], list(CONFIGS)):
        assert digests(order) == fresh_digests[0]
