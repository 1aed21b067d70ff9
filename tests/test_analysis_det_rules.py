"""Per-rule fixtures for the DET determinism family.

Each rule gets a positive fixture (fires with the right id and line),
a negative fixture (the compliant idiom passes), and — where the rule
has one — an allowlisted-path fixture.
"""

from __future__ import annotations

from tests.analysis_helpers import lint_source, rule_ids


# ------------------------------------------------------------------- DET-001
def test_det001_module_level_draw(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import random

        def pick(items):
            return random.choice(items)
        """,
        select=["DET-001"],
    )
    assert rule_ids(result) == ["DET-001"]
    assert result.findings[0].line == 4


def test_det001_from_import_draw(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from random import shuffle

        def scramble(items):
            shuffle(items)
        """,
        select=["DET-001"],
    )
    assert rule_ids(result) == ["DET-001"]
    assert "shuffle" in result.findings[0].message


def test_det001_bare_module_as_rng_object(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import random

        def jitter(rng=None):
            rng = rng or random
            return rng.uniform(0.0, 1.0)
        """,
        select=["DET-001"],
    )
    assert rule_ids(result) == ["DET-001"]


def test_det001_explicit_rng_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import random

        def pick(items, rng: random.Random):
            return rng.choice(items)
        """,
        select=["DET-001"],
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-002
def test_det002_unseeded_random(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import random

        def make_rng():
            return random.Random()
        """,
        select=["DET-002"],
        rel="src/repro/routing/fixture_mod.py",
    )
    assert rule_ids(result) == ["DET-002"]
    assert result.findings[0].line == 4


def test_det002_from_import_form(tmp_path):
    result = lint_source(
        tmp_path,
        "from random import Random\n\nrng = Random()\n",
        select=["DET-002"],
    )
    assert rule_ids(result) == ["DET-002"]


def test_det002_seeded_random_passes(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\n\nrng = random.Random(42)\n",
        select=["DET-002"],
    )
    assert result.findings == []


def test_det002_rng_registry_module_is_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\n\nrng = random.Random()\n",
        select=["DET-002"],
        rel="src/repro/sim/rng.py",
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-003
def test_det003_wall_clock(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import time

        def freshness():
            return time.time()
        """,
        select=["DET-003"],
    )
    assert rule_ids(result) == ["DET-003"]
    assert "wall clock" in result.findings[0].message


def test_det003_uuid4_and_urandom(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import os
        import uuid

        def fresh_nonce():
            return uuid.uuid4().bytes + os.urandom(8)
        """,
        select=["DET-003"],
    )
    assert sorted(rule_ids(result)) == ["DET-003", "DET-003"]


def test_det003_datetime_now_via_from_import(tmp_path):
    result = lint_source(
        tmp_path,
        "from datetime import datetime\n\nstamp = datetime.now()\n",
        select=["DET-003"],
    )
    assert rule_ids(result) == ["DET-003"]


def test_det003_perf_counter_is_allowed(tmp_path):
    result = lint_source(
        tmp_path,
        "import time\n\nstarted = time.perf_counter()\n",
        select=["DET-003"],
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-004
def test_det004_float_time_equality(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def stale(entry, now):
            return entry.timestamp == now
        """,
        select=["DET-004"],
    )
    assert "DET-004" in rule_ids(result)


def test_det004_tolerance_compare_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def stale(entry, now, eps=1e-9):
            return abs(entry.timestamp - now) < eps
        """,
        select=["DET-004"],
    )
    assert result.findings == []


def test_det004_integer_tick_compare_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def on_tick(deadline_tick, tick):
            return int(deadline_tick) == int(tick)
        """,
        select=["DET-004"],
    )
    assert result.findings == []


def test_det004_test_files_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "def check(sim):\n    assert sim.now == 5.0\n",
        select=["DET-004"],
        rel="tests/test_fixture_clock.py",
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-005
def test_det005_for_loop_over_set(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def fan_out(discover, send):
            neighbors: set = discover()
            for neighbor in neighbors:
                send(neighbor)
        """,
        select=["DET-005"],
    )
    assert rule_ids(result) == ["DET-005"]
    assert result.findings[0].line == 3


def test_det005_instance_attribute_set(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        class Router:
            def __init__(self):
                self._pending = set()

            def flush(self, send):
                for uid in self._pending:
                    send(uid)
        """,
        select=["DET-005"],
    )
    assert rule_ids(result) == ["DET-005"]


def test_det005_list_conversion_of_set_literal(tmp_path):
    result = lint_source(
        tmp_path,
        'order = list({"a", "b", "c"})\n',
        select=["DET-005"],
    )
    assert rule_ids(result) == ["DET-005"]


def test_det005_sorted_iteration_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def fan_out(neighbors: set, send):
            for neighbor in sorted(neighbors):
                send(neighbor)
        """,
        select=["DET-005"],
    )
    assert result.findings == []


def test_det005_list_iteration_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def fan_out(neighbors: list, send):
            for neighbor in neighbors:
                send(neighbor)
        """,
        select=["DET-005"],
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-006
def test_det006_module_level_itertools_count(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import itertools

        _uid = itertools.count(1)

        def fresh_uid():
            return next(_uid)
        """,
        select=["DET-006"],
    )
    assert rule_ids(result) == ["DET-006"]
    assert result.findings[0].line == 3
    assert "outlives the Simulator" in result.findings[0].message


def test_det006_from_import_count(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from itertools import count

        _seq = count()
        """,
        select=["DET-006"],
    )
    assert rule_ids(result) == ["DET-006"]


def test_det006_global_int_counter(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        _events = 0

        def bump():
            global _events
            _events += 1
            return _events
        """,
        select=["DET-006"],
    )
    assert rule_ids(result) == ["DET-006"]
    assert "_events" in result.findings[0].message


def test_det006_instance_counter_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import itertools

        class Medium:
            def __init__(self):
                self._tx_uid = itertools.count(1)

            def fresh(self):
                return next(self._tx_uid)
        """,
        select=["DET-006"],
    )
    assert result.findings == []


def test_det006_audited_uid_modules_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import itertools

        _uid_counter = itertools.count(1)
        """,
        select=["DET-006"],
        rel="src/repro/net/packet.py",
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-007
def test_det007_module_level_empty_dict(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        _CACHE = {}

        def lookup(key):
            return _CACHE.get(key)
        """,
        select=["DET-007"],
    )
    assert rule_ids(result) == ["DET-007"]
    assert result.findings[0].line == 1
    assert "_CACHE" in result.findings[0].message


def test_det007_cache_constructors_fire(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from collections import OrderedDict, defaultdict

        _a = dict()
        _b: dict = OrderedDict()
        _c = defaultdict(list)
        """,
        select=["DET-007"],
    )
    assert rule_ids(result) == ["DET-007", "DET-007", "DET-007"]


def test_det007_functools_memo_fires(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import functools

        @functools.lru_cache(maxsize=None)
        def slow(x):
            return x * x
        """,
        select=["DET-007"],
    )
    assert rule_ids(result) == ["DET-007"]
    assert "lru_cache" in result.findings[0].message


def test_det007_from_import_cache_decorator(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from functools import cache

        @cache
        def slow(x):
            return x * x
        """,
        select=["DET-007"],
    )
    assert rule_ids(result) == ["DET-007"]


def test_det007_lookup_tables_and_instance_caches_pass(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        _SIZES = {"hello": 24, "data": 64}   # populated literal: a table
        _COPY = dict(_SIZES)                 # copy: a table
        _KW = dict(a=1)                      # kwargs: a table


        class Verifier:
            def __init__(self):
                self._seen = {}              # instance-held: dies with owner

            def check(self, key):
                return self._seen.setdefault(key, len(self._seen))
        """,
        select=["DET-007"],
    )
    assert rule_ids(result) == []


def test_det007_audited_cache_module_is_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        _REGISTRY = {}
        """,
        select=["DET-007"],
        rel="src/repro/crypto/cache.py",
    )
    assert rule_ids(result) == []


# ------------------------------------------------------------------- DET-008
def test_det008_heapq_module_calls_fire(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import heapq

        queue = []

        def add(t, item):
            heapq.heappush(queue, (t, item))

        def pop():
            return heapq.heappop(queue)
        """,
        select=["DET-008"],
    )
    assert rule_ids(result) == ["DET-008", "DET-008"]
    assert "heappush" in result.findings[0].message


def test_det008_from_import_and_alias_fire(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from heapq import heapify, heapreplace
        import bisect as b

        def rebuild(entries):
            heapify(entries)
            heapreplace(entries, entries[0])

        def insert(entries, item):
            b.insort(entries, item)
        """,
        select=["DET-008"],
    )
    assert rule_ids(result) == ["DET-008", "DET-008", "DET-008"]
    assert "insort" in result.findings[-1].message


def test_det008_selection_helpers_pass(tmp_path):
    """nsmallest/merge are one-shot selection, not a standing queue, and
    bisect_left lookups do not insert — none of them are queues."""
    result = lint_source(
        tmp_path,
        """\
        import bisect
        import heapq

        def top3(xs):
            return heapq.nsmallest(3, xs)

        def merge_sorted(a, b):
            return list(heapq.merge(a, b))

        def rank(xs, x):
            return bisect.bisect_left(xs, x)
        """,
        select=["DET-008"],
    )
    assert rule_ids(result) == []


def test_det008_scheduler_backends_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from heapq import heappop, heappush

        def push(queue, entry):
            heappush(queue, entry)
        """,
        select=["DET-008"],
        rel="src/repro/sim/engine.py",
    )
    assert rule_ids(result) == []


def test_det008_audited_spatial_index_is_exempt(tmp_path):
    """The engine's own queue is the one audited heap in the tree."""
    result = lint_source(
        tmp_path,
        """\
        from heapq import heappush

        def note_horizon(heap, when, radio):
            heappush(heap, (when, radio.node_id))
        """,
        select=["DET-008"],
        rel="src/repro/sim/engine.py",
    )
    assert rule_ids(result) == []


# ------------------------------------------------------------------- DET-013
def test_det013_global_numpy_stream(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def jitter(xs):
            return xs + np.random.uniform(0.0, 1.0, len(xs))
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013"]
    assert "process-global" in result.findings[0].message


def test_det013_unseeded_default_rng(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from numpy.random import default_rng

        def make_gen():
            return default_rng()
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013"]
    assert "OS entropy" in result.findings[0].message


def test_det013_unseeded_randomstate(tmp_path):
    result = lint_source(
        tmp_path,
        "import numpy\n\nrs = numpy.random.RandomState()\n",
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013"]


def test_det013_seeded_generator_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def make_gen(seed_stream):
            return np.random.default_rng(seed_stream.getrandbits(64))
        """,
        select=["DET-013"],
    )
    assert result.findings == []


def test_det013_unstable_argsort(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def order(keys):
            return np.argsort(keys)

        def ranked(keys):
            return np.sort(keys)
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013", "DET-013"]
    assert 'kind="stable"' in result.findings[0].message


def test_det013_stable_sort_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def order(keys):
            return np.argsort(keys, kind="stable")

        def ranked(keys):
            return np.sort(keys, kind="mergesort")
        """,
        select=["DET-013"],
    )
    assert result.findings == []


def test_det013_unique_with_return_index(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def firsts(keys):
            values, index = np.unique(keys, return_index=True)
            return index
        """,
        select=["DET-013"],
    )
    assert rule_ids(result) == ["DET-013"]
    assert "return_index" in result.findings[0].message


def test_det013_plain_unique_passes(tmp_path):
    """Sorted uniques carry no tie-order information (the
    ArraySpatialIndex.stats() occupancy count is this shape)."""
    result = lint_source(
        tmp_path,
        """\
        import numpy as np

        def occupancy(packed_cells):
            cells, counts = np.unique(packed_cells, return_counts=True)
            return len(cells), counts.max()
        """,
        select=["DET-013"],
    )
    assert result.findings == []


def test_det013_tests_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "import numpy as np\n\nxs = np.random.rand(4)\n",
        select=["DET-013"],
        rel="tests/test_fixture.py",
    )
    assert result.findings == []


# ------------------------------------------------------------------- DET-014
def test_det014_shard_dict_iteration_feeding_scheduler(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def drain(sim, ghost_queues):
            ghost_queues = {}
            for shard, batch in ghost_queues.items():
                for tx in batch:
                    sim.schedule_at(tx.start, tx.fire)
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]
    assert "message-" in result.findings[0].message


def test_det014_sorted_shard_dict_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def drain(sim, ghost_queues):
            ghost_queues = {}
            for shard, batch in sorted(ghost_queues.items()):
                for tx in batch:
                    sim.schedule_at(tx.start, tx.fire)
        """,
        select=["DET-014"],
    )
    assert result.findings == []


def test_det014_shard_dict_without_scheduler_sink_passes(tmp_path):
    """Counting over a worker map never reaches the event queue."""
    result = lint_source(
        tmp_path,
        """\
        def tally(worker_conns):
            worker_conns = {}
            total = 0
            for conn in worker_conns.values():
                total += 1
            return total
        """,
        select=["DET-014"],
    )
    assert result.findings == []


def test_det014_nested_function_sink_does_not_leak(tmp_path):
    """A sink inside a nested helper must not license the outer loop."""
    result = lint_source(
        tmp_path,
        """\
        def outer(sim, shard_map):
            shard_map = {}
            for entry in shard_map.values():
                entry.touch()

            def inner():
                sim.schedule_at(0.0, lambda: None)

            return inner
        """,
        select=["DET-014"],
    )
    assert result.findings == []


def test_det014_getpid_as_identity(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import os

        def worker_tag(config):
            return f"shard-{os.getpid()}"
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]
    assert "per-process identity" in result.findings[0].message


def test_det014_wall_timer_onto_state(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import time

        class Shard:
            def start(self):
                self.started_wall = time.monotonic()
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]
    assert "object state" in result.findings[0].message


def test_det014_local_wallclock_measurement_passes(tmp_path):
    """``t0 = time.perf_counter()`` in a local is legal measurement."""
    result = lint_source(
        tmp_path,
        """\
        import time

        def run(scenario):
            t0 = time.perf_counter()
            scenario.run()
            return time.perf_counter() - t0
        """,
        select=["DET-014"],
    )
    assert result.findings == []


def test_det014_wall_timer_into_scheduling_call(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        import time

        def arm(sim, fire):
            sim.schedule_at(time.monotonic(), fire)
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]
    assert "sim.now" in result.findings[0].message


def test_det014_unpickled_set_iteration(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from typing import Set

        def apply(conn, registry):
            members: Set[str] = conn.recv()
            for name in members:
                registry.add(name)
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]
    assert "hash seed" in result.findings[0].message


def test_det014_set_wrapped_recv_iteration(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        def apply(work_queue, registry):
            for name in set(work_queue.get()):
                registry.add(name)
        """,
        select=["DET-014"],
    )
    assert rule_ids(result) == ["DET-014"]


def test_det014_sorted_unpickled_set_passes(tmp_path):
    result = lint_source(
        tmp_path,
        """\
        from typing import Set

        def apply(conn, registry):
            members: Set[str] = conn.recv()
            for name in sorted(members):
                registry.add(name)
        """,
        select=["DET-014"],
    )
    assert result.findings == []


def test_det014_tests_are_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "import os\n\npid = os.getpid()\n",
        select=["DET-014"],
        rel="tests/test_fixture.py",
    )
    assert result.findings == []
