"""Package-level quality gates: imports, exports, docstrings."""

import ast
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
    """The package imports only the standard library, numpy and itself,
    and SDchecker and the live service load only what they use.

    The load checks run in a fresh interpreter, because this one has
    long since imported the simulator.
    """

    ROOT = Path(repro.__file__).resolve().parents[2]

    def test_numpy_is_the_only_third_party_import_and_dependency(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
        foreign = []
        for path in sorted((self.ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue  # relative imports stay inside repro
                foreign += [
                    f"{path.relative_to(self.ROOT)}:{node.lineno} {name}"
                    for name in names
                    if name.split(".")[0] not in allowed
                ]
        assert foreign == []
        # The TOML array is also a Python literal (tomllib is 3.11+).
        pyproject = (self.ROOT / "pyproject.toml").read_text()
        listed = pyproject.split("\ndependencies = ", 1)[1].split("]", 1)[0] + "]"
        assert ast.literal_eval(listed) == ["numpy>=1.24"]

    #: Simulator packages: SDchecker reads text and must not load them.
    SIMULATOR = ("repro.testbed", "repro.simul", "repro.yarn", "repro.spark",
                 "repro.cluster", "repro.hdfs")

    #: Runs ``sdchecker <logdir>`` in-process, then imports the live
    #: CLI; prints the exit code, the report and every loaded ``repro``
    #: module as JSON.
    PROBE = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from repro.core import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([sys.argv[1]])
        import repro.live.cli
        loaded = sorted(name for name in sys.modules if name.startswith("repro"))
        print(json.dumps({"code": code, "report": out.getvalue(), "loaded": loaded}))
        """
    )

    def test_sdchecker_and_live_run_without_the_simulator(self):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE,
             str(self.ROOT / "tests" / "data" / "golden")],
            env=env, cwd=self.ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout)
        assert probe["code"] == 0
        assert "repro.live.cli" in probe["loaded"]
        simulator = [
            name for name in probe["loaded"]
            if any(name == pkg or name.startswith(pkg + ".")
                   for pkg in self.SIMULATOR)
        ]
        assert simulator == []
        assert "total_delay" in probe["report"]

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
