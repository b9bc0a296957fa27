"""Tests for the whole-program resolver behind the SD4xx/SD5xx passes."""

from repro.analysis.callgraph import (
    ProjectIndex,
    module_name_of,
    resolve_relative_import,
)


def graph_of(sources):
    return ProjectIndex.from_sources(sources).call_graph


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name_of("repro/live/server.py") == "repro.live.server"

    def test_package_init(self):
        assert module_name_of("repro/live/__init__.py") == "repro.live"

    def test_top_level(self):
        assert module_name_of("repro/__init__.py") == "repro"


class TestRelativeImports:
    def test_single_dot_sibling(self):
        # from .compat import x inside repro/pkg/mod.py
        assert (
            resolve_relative_import("repro.pkg.mod", False, 1, "compat")
            == "repro.pkg.compat"
        )

    def test_double_dot_climbs(self):
        assert (
            resolve_relative_import("repro.pkg.mod", False, 2, "other")
            == "repro.other"
        )

    def test_package_init_counts_as_its_own_level(self):
        assert (
            resolve_relative_import("repro.pkg", True, 1, "compat")
            == "repro.pkg.compat"
        )

    def test_bare_from_dot_import(self):
        assert resolve_relative_import("repro.pkg.mod", False, 1, None) == "repro.pkg"

    def test_climbing_past_the_root_is_none(self):
        assert resolve_relative_import("repro", False, 3, "x") is None


class TestAliasChains:
    def test_reexport_resolves_to_stdlib(self):
        index = ProjectIndex.from_sources(
            {
                "repro/pkg/__init__.py": "",
                "repro/pkg/compat.py": "from time import time as now\n",
                "repro/pkg/mod.py": "from .compat import now\n",
            }
        )
        assert index.resolve_dotted("repro.pkg.compat.now") == "time.time"
        assert index.resolve_dotted("repro.pkg.mod.now") == "time.time"

    def test_unaliased_names_come_back_unchanged(self):
        index = ProjectIndex.from_sources({"repro/a.py": "def f():\n    pass\n"})
        assert index.resolve_dotted("os.path.join") == "os.path.join"

    def test_alias_cycles_terminate(self):
        index = ProjectIndex.from_sources(
            {
                "repro/a.py": "from repro.b import x\n",
                "repro/b.py": "from repro.a import x\n",
            }
        )
        # Must not recurse forever; the exact result is unimportant.
        assert isinstance(index.resolve_dotted("repro.a.x"), str)


class TestCallEdges:
    SOURCES = {
        "repro/lib.py": (
            "class Session:\n"
            "    def poll(self):\n"
            "        return fetch()\n"
            "def fetch():\n"
            "    return open('x').read()\n"
        ),
        "repro/app.py": (
            "from repro.lib import Session\n"
            "class Server:\n"
            "    def __init__(self, session: Session):\n"
            "        self.session = session\n"
            "    async def loop(self):\n"
            "        self.session.poll()\n"
        ),
    }

    def test_annotated_attribute_method_resolution(self):
        graph = graph_of(self.SOURCES)
        loop = graph.index.functions["repro.app.Server.loop"]
        assert [c for c, _ in loop.calls] == ["repro.lib.Session.poll"]

    def test_reachability_and_chain(self):
        graph = graph_of(self.SOURCES)
        parents = graph.reachable("repro.app.Server.loop")
        assert "repro.lib.fetch" in parents
        assert graph.chain(parents, "repro.lib.fetch") == [
            "repro.app.Server.loop",
            "repro.lib.Session.poll",
            "repro.lib.fetch",
        ]

    def test_external_calls_are_recorded(self):
        graph = graph_of(self.SOURCES)
        fetch = graph.index.functions["repro.lib.fetch"]
        assert "open" in [name for name, _ in fetch.external_calls]

    def test_locals_do_not_masquerade_as_externals(self):
        graph = graph_of(
            {"repro/x.py": "def f(cb):\n    cb()\n    data = []\n    data.append(1)\n"}
        )
        f = graph.index.functions["repro.x.f"]
        assert f.external_calls == []
        assert f.calls == []

    def test_reachability_stops_at_async_callees(self):
        graph = graph_of(
            {
                "repro/y.py": (
                    "async def inner():\n"
                    "    pass\n"
                    "def outer():\n"
                    "    return inner()\n"
                )
            }
        )
        parents = graph.reachable("repro.y.outer")
        assert "repro.y.inner" not in parents
        assert "repro.y.inner" in graph.reachable("repro.y.outer", through_async=True)

    def test_a_call_to_an_abstract_method_reaches_its_overrides(self):
        graph = graph_of(
            {
                "repro/base.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                    "    def step(self):\n"
                    "        raise NotImplementedError\n"
                    "    def done(self):\n"
                    "        return True\n"
                ),
                "repro/impl.py": (
                    "from repro.base import Base\n"
                    "class A(Base):\n"
                    "    def step(self):\n"
                    "        return self.done()\n"
                    "class B(A):\n"
                    "    def step(self):\n"
                    "        return 2\n"
                    "    def done(self):\n"
                    "        return False\n"
                ),
            }
        )
        functions = graph.index.functions
        assert functions["repro.base.Base.step"].is_abstract
        assert not functions["repro.impl.A.step"].is_abstract
        assert [name for name, _ in functions["repro.base.Base.run"].calls] == [
            "repro.base.Base.step",
            "repro.impl.A.step",
            "repro.impl.B.step",
        ]
        # Only an abstract callee fans out: A.step's own call stays put.
        assert [name for name, _ in functions["repro.impl.A.step"].calls] == [
            "repro.base.Base.done"
        ]

    def test_nested_defs_are_separate_roots(self):
        graph = graph_of(
            {
                "repro/z.py": (
                    "def runner():\n"
                    "    async def serve():\n"
                    "        return 1\n"
                    "    return serve\n"
                )
            }
        )
        nested = graph.index.functions["repro.z.runner.<locals>.serve"]
        assert nested.is_async
        # The nested body is not attributed to the enclosing function.
        assert graph.index.functions["repro.z.runner"].calls == []


class TestRealTree:
    def test_builds_and_resolves_the_live_poll_chain(self, src_index):
        graph = src_index.call_graph
        loop = graph.index.functions["repro.live.server.LiveServer._poll_loop"]
        assert loop.is_async
        parents = graph.reachable(loop.qualname)
        blocking_holders = {
            qual
            for qual in parents
            if any(
                name == "os.open"
                for name, _ in graph.index.functions[qual].external_calls
            )
        }
        assert blocking_holders, "the poll loop must reach file I/O"
        chain = graph.chain(parents, sorted(blocking_holders)[0])
        assert chain[0] == loop.qualname
        assert len(chain) >= 3, "resolution must cross several modules"
