"""Tests for sdlint pass 5: the process-boundary lint (SD501-SD503)."""

from repro.analysis import procsafety
from repro.analysis.callgraph import ProjectIndex

_POOL_IMPORT = "from concurrent.futures import ProcessPoolExecutor\n"

#: Minimal stand-in for repro.simul.distributions in fixture trees.
_RNG_STUB = (
    "class RandomSource:\n"
    "    def child(self, name):\n"
    "        return RandomSource()\n"
    "    def uniform(self):\n"
    "        return 0.5\n"
)


def scan(sources):
    return procsafety.analyze(ProjectIndex.from_sources(sources))


def rules_of(sources):
    return [f.rule for f in scan(sources)]


class TestSD501GlobalMutation:
    def test_worker_mutating_a_module_global_fires_once(self):
        findings = scan(
            {
                "repro/w.py": _POOL_IMPORT
                + (
                    "_CACHE = {}\n"
                    "def work(task):\n"
                    "    _CACHE[task] = 1\n"
                    "    return task\n"
                    "def run_all(tasks):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return list(pool.map(work, tasks))\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["SD501"]
        assert "_CACHE" in findings[0].message

    def test_mutation_two_calls_down_is_still_found(self):
        findings = scan(
            {
                "repro/w.py": _POOL_IMPORT
                + (
                    "from repro.state import bump\n"
                    "def work(task):\n"
                    "    bump(task)\n"
                    "    return task\n"
                    "def run_all(tasks):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return list(pool.map(work, tasks))\n"
                ),
                "repro/state.py": (
                    "_SEEN = []\n"
                    "def bump(task):\n"
                    "    _SEEN.append(task)\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD501"]
        assert "_SEEN" in findings[0].message
        assert findings[0].path == "repro/state.py"

    def test_pure_worker_is_clean(self):
        assert (
            rules_of(
                {
                    "repro/w.py": _POOL_IMPORT
                    + (
                        "def work(task):\n"
                        "    return task * 2\n"
                        "def run_all(tasks):\n"
                        "    with ProcessPoolExecutor() as pool:\n"
                        "        return list(pool.map(work, tasks))\n"
                    )
                }
            )
            == []
        )

    def test_lambda_submission(self):
        findings = scan(
            {
                "repro/w.py": _POOL_IMPORT
                + (
                    "def run_one():\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool.submit(lambda: 1).result()\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["SD501"]
        assert "lambda" in findings[0].message

    def test_nested_function_submission(self):
        findings = scan(
            {
                "repro/w.py": _POOL_IMPORT
                + (
                    "def run_one(task):\n"
                    "    def inner(t):\n"
                    "        return t\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool.submit(inner, task).result()\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["SD501"]
        assert "nested" in findings[0].message

    def test_wrapper_form_submission_is_recognized(self):
        # Mirrors repro.core.parser._pool_map: helper(pool, fn, tasks).
        findings = scan(
            {
                "repro/w.py": _POOL_IMPORT
                + (
                    "from repro.util import pool_map\n"
                    "_COUNT = []\n"
                    "def work(task):\n"
                    "    _COUNT.append(task)\n"
                    "    return task\n"
                    "def run_all(tasks):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool_map(pool, work, tasks)\n"
                ),
                "repro/util.py": (
                    "def pool_map(pool, fn, tasks):\n"
                    "    return list(pool.map(fn, tasks))\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD501"]

    def test_thread_pools_are_out_of_scope(self):
        assert (
            rules_of(
                {
                    "repro/w.py": (
                        "from concurrent.futures import ThreadPoolExecutor\n"
                        "_CACHE = {}\n"
                        "def work(task):\n"
                        "    _CACHE[task] = 1\n"
                        "def run_all(tasks):\n"
                        "    with ThreadPoolExecutor() as pool:\n"
                        "        return list(pool.map(work, tasks))\n"
                    )
                }
            )
            == []
        )


class TestSD502SlotsContract:
    BARE = (
        "class Payload:\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
    )
    TAIL = (
        "def work(task) -> Payload:\n"
        "    return Payload(task)\n"
        "def run_all(tasks):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(work, tasks))\n"
    )

    def test_bare_slots_return_type_fires_once(self):
        findings = scan(
            {"repro/s.py": _POOL_IMPORT + self.BARE + self.TAIL}
        )
        assert [f.rule for f in findings] == ["SD502"]
        assert "Payload" in findings[0].message

    def test_slotted_dataclass_is_clean(self):
        source = _POOL_IMPORT + (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class Payload:\n"
            "    a: int\n"
        ) + self.TAIL
        assert rules_of({"repro/s.py": source}) == []

    def test_explicit_pickle_protocol_is_clean(self):
        source = _POOL_IMPORT + (
            "class Payload:\n"
            "    __slots__ = ('a',)\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
            "    def __getstate__(self):\n"
            "        return self.a\n"
            "    def __setstate__(self, state):\n"
            "        self.a = state\n"
        ) + self.TAIL
        assert rules_of({"repro/s.py": source}) == []

    def test_bytes_wire_blob_return_is_clean(self):
        # A builtin return type (here plain ``bytes``) crossing the pool
        # boundary must never trip the slots-contract rule, which only
        # concerns project classes named in the return annotation.
        source = _POOL_IMPORT + self.BARE + (
            "def work(task) -> bytes:\n"
            "    return bytes(task)\n"
            "def run_all(tasks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, tasks))\n"
        )
        assert rules_of({"repro/s.py": source}) == []

    def test_class_not_crossing_the_boundary_is_ignored(self):
        source = _POOL_IMPORT + self.BARE + (
            "def work(task) -> int:\n"
            "    return task\n"
            "def run_all(tasks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, tasks))\n"
        )
        assert rules_of({"repro/s.py": source}) == []


class TestSD503SharedRandomSource:
    def test_module_singleton_read_by_worker(self):
        findings = scan(
            {
                "repro/simul/distributions.py": _RNG_STUB,
                "repro/r.py": _POOL_IMPORT
                + (
                    "from repro.simul.distributions import RandomSource\n"
                    "_SOURCE = RandomSource()\n"
                    "def work(task):\n"
                    "    return _SOURCE.uniform() + task\n"
                    "def run_all(tasks):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return list(pool.map(work, tasks))\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD503"]
        assert "_SOURCE" in findings[0].message

    def test_child_substreams_shipped_as_payload_are_clean(self):
        assert (
            rules_of(
                {
                    "repro/simul/distributions.py": _RNG_STUB,
                    "repro/r.py": _POOL_IMPORT
                    + (
                        "from repro.simul.distributions import RandomSource\n"
                        "_SOURCE = RandomSource()\n"
                        "def work(args):\n"
                        "    task, rng = args\n"
                        "    return rng.uniform() + task\n"
                        "def run_all(tasks):\n"
                        "    with ProcessPoolExecutor() as pool:\n"
                        "        items = [(t, _SOURCE.child(str(t))) for t in tasks]\n"
                        "        return list(pool.map(work, items))\n"
                    ),
                }
            )
            == []
        )

    def test_random_source_argument_without_child_split(self):
        findings = scan(
            {
                "repro/simul/distributions.py": _RNG_STUB,
                "repro/r.py": _POOL_IMPORT
                + (
                    "from repro.simul.distributions import RandomSource\n"
                    "def work(task, rng):\n"
                    "    return rng.uniform() + task\n"
                    "def run_all(task, rng: RandomSource):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return pool.submit(work, task, rng).result()\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD503"]
        assert ".child()" in findings[0].message

    def test_child_derived_argument_is_sanctioned(self):
        assert (
            rules_of(
                {
                    "repro/simul/distributions.py": _RNG_STUB,
                    "repro/r.py": _POOL_IMPORT
                    + (
                        "from repro.simul.distributions import RandomSource\n"
                        "def work(task, rng):\n"
                        "    return rng.uniform() + task\n"
                        "def run_all(task, rng: RandomSource):\n"
                        "    sub = rng.child('worker')\n"
                        "    with ProcessPoolExecutor() as pool:\n"
                        "        return pool.submit(work, task, sub).result()\n"
                    ),
                }
            )
            == []
        )


class TestRealTree:
    def test_tree_is_clean(self, src_index):
        # Clean but for one baselined static-only path: calibration
        # trials mine LogStores, which never reach _pool_map, but
        # LogMiner.mine's directory branch is reachable statically, and
        # with it _pool_map's function-local sanitizer import.
        findings = procsafety.analyze(src_index)
        assert [(f.rule, f.path) for f in findings] == [
            ("SD501", "repro/analysis/sanitizer.py")
        ]
        assert findings[0].message.startswith(
            "record() mutates module global '_findings' and is reachable "
            "from _evaluate_task()"
        )

    def test_miner_submission_sites_are_discovered(self, src_index):
        # The pass must actually *see* the parser's executor fan-out
        # (including the _pool_map wrapper form) — a clean report born
        # of blindness would be worthless.
        graph = src_index.call_graph
        targets = set()
        for qualname in sorted(graph.index.functions):
            for site in procsafety._sites_in(
                graph, graph.index.functions[qualname]
            ):
                if site.target is not None:
                    targets.add(site.target)
        # Directory chunks are the miner's only fan-out: stores mine
        # in-process, so no other parser function crosses to a worker.
        assert {t for t in targets if t.startswith("repro.core.parser.")} == {
            "repro.core.parser._mine_chunk_task"
        }

    def test_calibrate_submission_site_is_discovered(self, src_index):
        # Same blindness guard for the calibration fit driver: the
        # SD5xx pass must see the trial fan-out's worker function.
        graph = src_index.call_graph
        targets = set()
        for qualname in sorted(graph.index.functions):
            for site in procsafety._sites_in(
                graph, graph.index.functions[qualname]
            ):
                if site.target is not None:
                    targets.add(site.target)
        assert "repro.calibrate.search._evaluate_task" in targets
