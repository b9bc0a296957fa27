"""Package-level quality gates: imports, exports, docstrings."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ALL_MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_module_inventory_is_complete(self):
        """The package has the subsystems DESIGN.md promises."""
        packages = {name.split(".")[1] for name in ALL_MODULES}
        assert {
            "simul",
            "logsys",
            "cluster",
            "hdfs",
            "yarn",
            "spark",
            "mapreduce",
            "hive",
            "workloads",
            "core",
            "experiments",
        } <= packages


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "module_name",
        [m for m in ALL_MODULES if not m.rsplit(".", 1)[-1].startswith("_")],
    )
    def test_module_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestImportFootprint:
    """SDchecker and the live service load only what they use.

    Every check runs in a fresh interpreter, because this one has long
    since imported the simulator and networkx.
    """

    #: Simulator packages: SDchecker reads text and must not load them.
    SIMULATOR = ("repro.testbed", "repro.simul", "repro.yarn", "repro.spark",
                 "repro.cluster", "repro.hdfs")

    #: Runs ``sdchecker <logdir>`` in-process, optionally with networkx
    #: made unimportable, then imports the live CLI; prints the exit
    #: code, the report and every loaded ``repro`` module as JSON.
    PROBE = textwrap.dedent(
        """
        import contextlib, io, json, sys
        if sys.argv[1] == "no-networkx":
            sys.modules["networkx"] = None
        from repro.core import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([sys.argv[2]])
        import repro.live.cli
        loaded = sorted(name for name in sys.modules if name.startswith("repro"))
        print(json.dumps({"code": code, "report": out.getvalue(), "loaded": loaded}))
        """
    )

    def _probe(self, mode: str) -> dict:
        root = Path(repro.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, mode,
             str(root / "tests" / "data" / "golden")],
            env=env, cwd=root, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_sdchecker_and_live_run_without_networkx_or_the_simulator(self):
        blocked = self._probe("no-networkx")
        assert blocked["code"] == 0
        assert "repro.live.cli" in blocked["loaded"]
        simulator = [
            name for name in blocked["loaded"]
            if any(name == pkg or name.startswith(pkg + ".")
                   for pkg in self.SIMULATOR)
        ]
        assert simulator == []
        reference = self._probe("networkx")
        assert reference["code"] == 0
        assert blocked["report"] == reference["report"]
        assert "total_delay" in blocked["report"]

    #: What the live service loads and a ``query`` does not need.
    LIVE_SERVICE = ("numpy", "multiprocessing", "http.server", "repro.core",
                    "repro.live.incremental", "repro.live.server",
                    "repro.live.router", "repro.live.sharded")

    def test_live_query_cli_loads_only_the_client(self):
        root = Path(repro.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        probe = "import json, sys\nimport repro.live.cli\nprint(json.dumps(sorted(sys.modules)))\n"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, cwd=root, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        assert "repro.live.client" in loaded
        heavy = [
            name for name in loaded
            if any(name == mod or name.startswith(mod + ".")
                   for mod in self.LIVE_SERVICE)
        ]
        assert heavy == []

    def test_lazy_exports_still_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        assert set(repro.__all__) <= set(dir(repro))
        from repro.core import SchedulingGraph
        from repro.core.graph import SchedulingGraph as defined

        assert SchedulingGraph is defined
        with pytest.raises(AttributeError):
            repro.NoSuchExport
        with pytest.raises(AttributeError):
            importlib.import_module("repro.core").NoSuchExport


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name

    def test_public_api_documented(self):
        from repro.core.checker import SDChecker
        from repro.testbed import Testbed

        for obj in (SDChecker, SDChecker.analyze, Testbed, Testbed.submit):
            assert obj.__doc__ and obj.__doc__.strip()


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_py_typed_marker_shipped(self):
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()
