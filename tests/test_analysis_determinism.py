"""Tests for sdlint pass 3: the determinism lint (SD301-SD303)."""

from pathlib import Path

from repro.analysis import determinism
from repro.analysis.callgraph import ProjectIndex

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def scan(sources):
    return determinism.analyze(ProjectIndex.from_sources(sources))


def rules_of(source: str, path: str = "repro/fake.py"):
    return [f.rule for f in scan({path: source})]


class TestUnseededRandom:
    def test_stdlib_random_call(self):
        assert rules_of("import random\nx = random.random()\n") == ["SD301"]

    def test_numpy_random_via_alias(self):
        assert rules_of("import numpy as np\nx = np.random.rand(3)\n") == ["SD301"]

    def test_from_import(self):
        assert rules_of("from random import shuffle\nshuffle([1, 2])\n") == ["SD301"]

    def test_distributions_module_is_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules_of(source, "repro/simul/distributions.py") == []
        assert rules_of(source) == ["SD301"]

    def test_unrelated_module_attribute_ok(self):
        assert rules_of("import math\nx = math.sqrt(2)\n") == []


class TestWallClock:
    def test_time_time(self):
        assert rules_of("import time\nt = time.time()\n") == ["SD302"]

    def test_perf_counter(self):
        assert rules_of("import time\nt = time.perf_counter()\n") == ["SD302"]

    def test_datetime_now_from_import(self):
        source = "from datetime import datetime\nt = datetime.now()\n"
        assert rules_of(source) == ["SD302"]

    def test_datetime_module_form(self):
        source = "import datetime\nt = datetime.datetime.utcnow()\n"
        assert rules_of(source) == ["SD302"]

    def test_function_local_import(self):
        source = "def f():\n    import time\n    return time.time()\n"
        assert rules_of(source) == ["SD302"]


class TestUnorderedIteration:
    def test_for_over_set_literal(self):
        assert rules_of("for x in {1, 2, 3}:\n    print(x)\n") == ["SD303"]

    def test_for_over_set_call(self):
        assert rules_of("for x in set(items):\n    print(x)\n") == ["SD303"]

    def test_comprehension_over_set(self):
        assert rules_of("out = [x for x in set(items)]\n") == ["SD303"]

    def test_sorted_set_is_fine(self):
        assert rules_of("for x in sorted(set(items)):\n    print(x)\n") == []

    def test_list_iteration_is_fine(self):
        assert rules_of("for x in [1, 2]:\n    print(x)\n") == []


class TestCompletionOrderMerge:
    def test_as_completed_from_import(self):
        source = (
            "from concurrent.futures import as_completed\n"
            "for f in as_completed(futures):\n    f.result()\n"
        )
        assert rules_of(source) == ["SD304"]

    def test_as_completed_module_form(self):
        source = (
            "import concurrent.futures\n"
            "for f in concurrent.futures.as_completed(futures):\n    pass\n"
        )
        assert rules_of(source) == ["SD304"]

    def test_asyncio_as_completed(self):
        source = "import asyncio\nfor f in asyncio.as_completed(tasks):\n    pass\n"
        assert rules_of(source) == ["SD304"]

    def test_executor_map_is_sanctioned(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    results = list(pool.map(work, tasks))\n"
        )
        assert rules_of(source) == []


class TestWallClockLocaltimeFamily:
    """SD302 also covers the struct_time readers the live tailer could
    be tempted to stamp chunks with."""

    def test_time_localtime(self):
        assert rules_of("import time\nt = time.localtime()\n") == ["SD302"]

    def test_time_gmtime(self):
        assert rules_of("import time\nt = time.gmtime()\n") == ["SD302"]

    def test_time_ctime(self):
        assert rules_of("import time\ns = time.ctime()\n") == ["SD302"]

    def test_time_sleep_is_sanctioned(self):
        # Pacing a poll loop does not *read* the clock.
        assert rules_of("import time\ntime.sleep(0.1)\n") == []

    def test_asyncio_sleep_is_sanctioned(self):
        source = "import asyncio\nasync def f():\n    await asyncio.sleep(0.1)\n"
        assert rules_of(source) == []


class TestWallClockExtendedSet:
    """The SD302 audit additions: process clocks, os.times, and the
    fromtimestamp converters."""

    def test_os_times(self):
        assert rules_of("import os\nt = os.times()\n") == ["SD302"]

    def test_process_time(self):
        assert rules_of("import time\nt = time.process_time()\n") == ["SD302"]

    def test_clock_gettime_ns(self):
        source = "import time\nt = time.clock_gettime_ns(time.CLOCK_REALTIME)\n"
        assert rules_of(source) == ["SD302"]

    def test_fromtimestamp_with_log_derived_value_is_fine(self):
        source = (
            "import datetime\n"
            "def stamp(ts):\n"
            "    return datetime.datetime.fromtimestamp(ts)\n"
        )
        assert rules_of(source) == []

    def test_fromtimestamp_of_a_call_manufactures_a_timestamp(self):
        source = (
            "import time\nimport datetime\n"
            "t = datetime.datetime.fromtimestamp(time.time())\n"
        )
        # Both the converter and the inner clock read are flagged.
        assert rules_of(source) == ["SD302", "SD302"]

    def test_sanitizer_module_is_exempt(self):
        source = "import time\nt = time.perf_counter()\n"
        assert rules_of(source, "repro/analysis/sanitizer.py") == []
        assert rules_of(source) == ["SD302"]


class TestRelativeImports:
    """Regression: ``node.level > 0`` imports used to be dropped, so
    in-package aliases could launder banned calls."""

    def _tree(self, tmp_path, mod_source, compat_source=None):
        pkg = tmp_path / "repro" / "pkg"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        if compat_source is not None:
            (pkg / "compat.py").write_text(compat_source)
        (pkg / "mod.py").write_text(mod_source)
        return tmp_path

    def test_sd301_fires_through_a_relative_reexport(self, tmp_path):
        root = self._tree(
            tmp_path,
            "from .compat import roll\n\n\ndef jitter():\n    return roll()\n",
            "from random import random as roll\n",
        )
        findings = determinism.analyze(ProjectIndex.build(root))
        assert [(f.rule, f.path) for f in findings] == [
            ("SD301", "repro/pkg/mod.py")
        ]

    def test_sd302_fires_through_a_relative_reexport(self, tmp_path):
        root = self._tree(
            tmp_path,
            "from .compat import now\n\n\ndef stamp():\n    return now()\n",
            "from time import time as now\n",
        )
        findings = determinism.analyze(ProjectIndex.build(root))
        assert [(f.rule, f.path) for f in findings] == [
            ("SD302", "repro/pkg/mod.py")
        ]

    def test_sd303_fires_in_a_module_using_relative_imports(self, tmp_path):
        root = self._tree(
            tmp_path,
            "from .compat import ITEMS\n\n\n"
            "def order():\n    return [x for x in set(ITEMS)]\n",
            "ITEMS = (1, 2, 3)\n",
        )
        findings = determinism.analyze(ProjectIndex.build(root))
        assert [(f.rule, f.path) for f in findings] == [
            ("SD303", "repro/pkg/mod.py")
        ]

    def test_single_file_scan_resolves_relative_stdlib_alias(self):
        # Per-file scans now know their own module name, so a relative
        # alias chain inside the *same* package still needs the tree
        # scan; but a direct relative import no longer hides the name.
        source = "from . import compat\n"
        assert scan({"repro/pkg/mod.py": source}) == []

    def test_clean_relative_imports_stay_clean(self, tmp_path):
        root = self._tree(
            tmp_path,
            "from .compat import helper\n\n\ndef f():\n    return helper()\n",
            "def helper():\n    return 42\n",
        )
        assert determinism.analyze(ProjectIndex.build(root)) == []


class TestPristineTree:
    def test_simulator_source_is_deterministic(self, src_index):
        assert determinism.analyze(src_index) == []

    def test_live_tree_is_scanned_and_clean(self, src_index):
        # The incremental miner/server promise replay byte-identity, so
        # the determinism lint must both reach them and find nothing.
        live_root = SRC_ROOT / "repro" / "live"
        scanned = {f.path for f in determinism.analyze(src_index)}
        assert determinism.analyze(ProjectIndex.build(live_root)) == []
        assert not any(p.startswith("repro/live/") for p in scanned)

    def test_calibrate_tree_is_scanned_and_clean(self, src_index):
        # The fit driver promises byte-identical artifacts at any
        # --jobs, so wall-clock reads or unseeded randomness anywhere
        # in repro.calibrate would be a contract violation.
        calibrate_root = SRC_ROOT / "repro" / "calibrate"
        scanned = {f.path for f in determinism.analyze(src_index)}
        assert determinism.analyze(ProjectIndex.build(calibrate_root)) == []
        assert not any(p.startswith("repro/calibrate/") for p in scanned)

    def test_syntax_errors_are_skipped(self):
        assert scan({"x.py": "def broken(:\n"}) == []
