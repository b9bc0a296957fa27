"""Tests for sdlint pass 4: the async-safety lint (SD401-SD403)."""

from repro.analysis import asyncsafety
from repro.analysis.callgraph import ProjectIndex


def scan(sources):
    return asyncsafety.analyze(ProjectIndex.from_sources(sources))


def rules_of(sources):
    return [f.rule for f in scan(sources)]


class TestSD401Blocking:
    def test_direct_blocking_call_fires_once(self):
        findings = scan(
            {"repro/srv.py": "import time\nasync def h():\n    time.sleep(1)\n"}
        )
        assert [f.rule for f in findings] == ["SD401"]
        assert "time.sleep" in findings[0].message
        assert findings[0].path == "repro/srv.py"

    def test_async_sleep_is_sanctioned(self):
        assert (
            rules_of(
                {
                    "repro/srv.py": (
                        "import asyncio\n"
                        "async def h():\n"
                        "    await asyncio.sleep(1)\n"
                    )
                }
            )
            == []
        )

    def test_blocking_reachable_through_a_sync_chain(self):
        findings = scan(
            {
                "repro/a.py": (
                    "from repro.b import work\n"
                    "async def h():\n"
                    "    return work()\n"
                ),
                "repro/b.py": (
                    "def work():\n"
                    "    with open('x') as fh:\n"
                    "        return fh.read()\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD401"]
        assert "via work" in findings[0].message
        # Anchored at the async body's call site, in the async file.
        assert findings[0].path == "repro/a.py"

    def test_two_paths_to_the_same_blocking_call_dedupe(self):
        findings = scan(
            {
                "repro/a.py": (
                    "from repro.b import left, right\n"
                    "async def h():\n"
                    "    left()\n"
                    "    right()\n"
                ),
                "repro/b.py": (
                    "def left():\n"
                    "    return open('x')\n"
                    "def right():\n"
                    "    return open('y')\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD401"]

    def test_blocking_reachable_through_a_function_local_import(self):
        findings = scan(
            {
                "repro/pkg/__init__.py": "",
                "repro/pkg/io_helpers.py": (
                    "def slurp(path):\n"
                    "    with open(path) as fh:\n"
                    "        return fh.read()\n"
                ),
                "repro/pkg/server.py": (
                    "async def handler(path):\n"
                    "    from repro.pkg.io_helpers import slurp\n"
                    "    return slurp(path)\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD401"]
        assert "open() is reachable from async def handler via slurp" in (
            findings[0].message
        )

    def test_raw_os_read_reachable_through_a_helper(self):
        findings = scan(
            {
                "repro/a.py": (
                    "from repro.b import read_at\n"
                    "async def h(fd):\n"
                    "    return read_at(fd, 0)\n"
                ),
                "repro/b.py": (
                    "import os\n"
                    "def read_at(fd, offset):\n"
                    "    return os.pread(fd, 4096, offset)\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD401"]
        assert "os.pread() is reachable from async def h via read_at" in (
            findings[0].message
        )

    def test_raw_os_open_and_read_block(self):
        findings = scan(
            {
                "repro/srv.py": (
                    "import os\n"
                    "async def h(path):\n"
                    "    fd = os.open(path, os.O_RDONLY)\n"
                    "    return os.read(fd, 64)\n"
                )
            }
        )
        assert sorted(f.message.split()[2] for f in findings) == [
            "os.open()",
            "os.read()",
        ]

    def test_sync_functions_are_not_flagged(self):
        assert (
            rules_of({"repro/s.py": "import time\ndef h():\n    time.sleep(1)\n"})
            == []
        )


_PROTOCOL = (
    "import asyncio\n"
    "import time\n"
    "class Conn(asyncio.BufferedProtocol):\n"
    "    def get_buffer(self, hint):\n"
    "        return bytearray(1)\n"
    "    def buffer_updated(self, n):\n"
    "        self._answer()\n"
    "    def _answer(self):\n"
    "        time.sleep(1)\n"
)


class TestSD401ProtocolCallbacks:
    """The loop runs a protocol's callbacks inline, like an async body."""

    def test_a_callback_reaching_a_blocking_call_fires(self):
        findings = scan({"repro/srv.py": _PROTOCOL})
        assert [f.rule for f in findings] == ["SD401"]
        assert findings[0].message.startswith(
            "blocking call time.sleep() is reachable from event-loop "
            "callback Conn.buffer_updated via Conn._answer;"
        )

    def test_a_blocking_call_inside_a_callback_fires(self):
        findings = scan(
            {
                "repro/srv.py": (
                    "from asyncio import Protocol\n"
                    "class Conn(Protocol):\n"
                    "    def data_received(self, data):\n"
                    "        open('x')\n"
                )
            }
        )
        assert [f.message.split(" stalls")[0] for f in findings] == [
            "blocking call open() inside event-loop callback Conn.data_received"
        ]

    def test_a_subclass_of_a_project_protocol_is_a_protocol(self):
        findings = scan(
            {
                "repro/base.py": "import asyncio\nclass Base(asyncio.Protocol):\n    pass\n",
                "repro/srv.py": (
                    "import time\n"
                    "from repro.base import Base\n"
                    "class Conn(Base):\n"
                    "    def eof_received(self):\n"
                    "        time.sleep(1)\n"
                ),
            }
        )
        assert [f.rule for f in findings] == ["SD401"]

    def test_callback_names_elsewhere_are_not_roots(self):
        # Not a protocol, and a protocol method the loop never calls.
        assert rules_of(
            {
                "repro/srv.py": _PROTOCOL.replace(
                    "asyncio.BufferedProtocol", "object"
                )
            }
        ) == []
        assert rules_of(
            {"repro/srv.py": _PROTOCOL.replace("buffer_updated", "feed")}
        ) == []


_ABSTRACT = (
    "import asyncio\n"
    "import time\n"
    "class Server:\n"
    "    def respond(self):\n"
    "        return self._dispatch()\n"
    "    def _dispatch(self):\n"
    "        \"\"\"The answer.\"\"\"\n"
    "        raise NotImplementedError\n"
    "class Live(Server):\n"
    "    def _dispatch(self):\n"
    "        time.sleep(1)\n"
    "async def serve(server: Server):\n"
    "    return server.respond()\n"
)


class TestSD401AbstractDispatch:
    """A call resolving to an abstract method reaches its overrides."""

    def test_an_override_reached_through_the_abstract_method_fires(self):
        findings = scan({"repro/srv.py": _ABSTRACT})
        assert [f.rule for f in findings] == ["SD401"]
        assert "from async def serve via Server.respond -> Live._dispatch;" in (
            findings[0].message
        )

    def test_a_raise_with_arguments_is_abstract_too(self):
        source = _ABSTRACT.replace(
            "raise NotImplementedError\n", "raise NotImplementedError('x')\n"
        )
        assert rules_of({"repro/srv.py": source}) == ["SD401"]

    def test_a_base_method_with_a_body_does_not_reach_overrides(self):
        source = _ABSTRACT.replace("raise NotImplementedError\n", "return None\n")
        assert rules_of({"repro/srv.py": source}) == []


class TestSD402Unawaited:
    SOURCES = {
        "repro/c.py": (
            "import asyncio\n"
            "async def job():\n"
            "    return 1\n"
            "async def main():\n"
            "    job()\n"
            "    asyncio.create_task(job())\n"
        )
    }

    def test_bare_coroutine_call_and_dropped_task_handle(self):
        findings = scan(self.SOURCES)
        assert [f.rule for f in findings] == ["SD402", "SD402"]
        messages = " ".join(f.message for f in findings)
        assert "never awaited" in messages
        assert "create_task" in messages

    def test_awaited_and_retained_forms_are_clean(self):
        assert (
            rules_of(
                {
                    "repro/c.py": (
                        "import asyncio\n"
                        "async def job():\n"
                        "    return 1\n"
                        "async def main():\n"
                        "    await job()\n"
                        "    task = asyncio.create_task(job())\n"
                        "    await task\n"
                    )
                }
            )
            == []
        )


class TestSD403Queues:
    def test_unbounded_queue_construction(self):
        findings = scan(
            {
                "repro/q.py": (
                    "import asyncio\n"
                    "async def main():\n"
                    "    q = asyncio.Queue()\n"
                    "    await q.put(1)\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["SD403"]
        assert "maxsize" in findings[0].message

    def test_explicit_zero_maxsize_is_still_unbounded(self):
        assert (
            rules_of(
                {
                    "repro/q.py": (
                        "import asyncio\n"
                        "async def main():\n"
                        "    q = asyncio.Queue(0)\n"
                    )
                }
            )
            == ["SD403"]
        )

    def test_bounded_queue_is_clean(self):
        assert (
            rules_of(
                {
                    "repro/q.py": (
                        "import asyncio\n"
                        "async def main():\n"
                        "    q = asyncio.Queue(maxsize=8)\n"
                    )
                }
            )
            == []
        )

    def test_join_without_timeout(self):
        findings = scan(
            {
                "repro/q.py": (
                    "import asyncio\n"
                    "async def drain(q: asyncio.Queue):\n"
                    "    await q.join()\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["SD403"]
        assert "wait_for" in findings[0].message

    def test_join_wrapped_in_wait_for_is_clean(self):
        assert (
            rules_of(
                {
                    "repro/q.py": (
                        "import asyncio\n"
                        "async def drain(q: asyncio.Queue):\n"
                        "    await asyncio.wait_for(q.join(), timeout=5.0)\n"
                    )
                }
            )
            == []
        )


class TestRealTree:
    def test_only_the_baselined_serving_deviations_remain(self, src_index):
        # Six accepted deviations, all in the live server and all
        # baselined: the poll loop's tailing I/O and the drain op's
        # end-of-life flush each reach _read_to_eof's open() and
        # _advance_live's os.open()/os.pread() — single-threaded
        # serving by design.
        findings = asyncsafety.analyze(src_index)
        assert [f.rule for f in findings] == ["SD401"] * 6
        assert {f.path for f in findings} == {"repro/live/server.py"}
        for root in (
            "async def LiveServer._poll_loop",
            "event-loop callback _Connection.buffer_updated",
        ):
            for call in ("open", "os.open", "os.pread"):
                needle = f"blocking call {call}() is reachable from {root} "
                assert sum(needle in f.message for f in findings) == 1

    def test_live_and_faults_have_no_other_async_findings(self, src_index):
        paths = {f.path for f in asyncsafety.analyze(src_index) if f.rule != "SD401"}
        assert not any(p.startswith("repro/live/") for p in paths)
        assert not any(p.startswith("repro/faults/") for p in paths)
