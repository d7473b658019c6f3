"""Whole-program engine tests: graphs, CFG, protocol rules, taint,
telemetry cross-check, and the CLI satellites.

Every new rule gets a planted-bug fixture (caught) and a pragma twin
(silenced) — the acceptance contract for the REP010–REP018 family.
"""

import ast
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cfg import ENTRY, EXIT, Cfg
from repro.analysis.graphs import CallGraph, ImportGraph, Project
from repro.analysis.lint import main as lint_main
from repro.analysis.whole_program import (
    build_project,
    run_whole_program,
    whole_program_rules,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _write_tree(tmp_path, files):
    # The .git marker anchors repo-root discovery inside the fixture, so
    # catalog scans (docs/, .github/) never leak in from the real repo.
    (tmp_path / ".git").mkdir(exist_ok=True)
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def _project(tmp_path, files):
    """A Project over a fixture tree rooted at tmp_path (catalog scans
    stay inside the fixture, never the real repo)."""
    _write_tree(tmp_path, files)
    project = Project.load([tmp_path / "repro"], repo_root=tmp_path)
    project.call_graph = CallGraph(project)
    return project


def _run(tmp_path, files, rule_ids=None):
    project = _project(tmp_path, files)
    rules = whole_program_rules()
    if rule_ids is not None:
        rules = [r for r in rules if r.id in rule_ids]
    return run_whole_program([], rules=rules, project=project)


def _cfg(source, name="f"):
    tree = ast.parse(textwrap.dedent(source))
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)
    return Cfg(func), func


# ---------------------------------------------------------------------------
# project / graphs
# ---------------------------------------------------------------------------

class TestProject:
    def test_indexes_functions_methods_and_generators(self, tmp_path):
        project = _project(tmp_path, {"repro/app.py": """\
            '''Fixture.'''


            class Pump:
                def spin(self, sim):
                    yield sim.timeout(1.0)


            def helper():
                return 1
        """})
        assert "repro.app.Pump.spin" in project.functions
        assert project.functions["repro.app.Pump.spin"].is_generator
        assert project.functions["repro.app.Pump.spin"].cls == "repro.app.Pump"
        assert not project.functions["repro.app.helper"].is_generator

    def test_resolve_method_walks_same_module_bases(self, tmp_path):
        project = _project(tmp_path, {"repro/app.py": """\
            '''Fixture.'''


            class Base:
                def shared(self):
                    return 1


            class Child(Base):
                pass
        """})
        found = project.resolve_method("repro.app.Child", "shared")
        assert found is not None
        assert found.qualname == "repro.app.Base.shared"

    def test_syntax_error_files_skipped(self, tmp_path):
        project = _project(tmp_path, {
            "repro/ok.py": "'''Fine.'''\nX = 1\n",
            "repro/broken.py": "def nope(:\n",
        })
        assert "repro/ok.py" in project.modules
        assert "repro/broken.py" not in project.modules


class TestCallGraph:
    FILES = {"repro/app.py": """\
        '''Fixture.'''

        from repro.util import helper


        class Service:
            def run(self, sim):
                self.step()
                helper()

            def step(self):
                local()


        def local():
            return 1
    """, "repro/util.py": """\
        '''Fixture.'''


        def helper():
            return 2
    """}

    def test_resolves_self_bare_and_imported_calls(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        graph = project.call_graph
        callees = {s.callee for s in graph.callees("repro.app.Service.run")}
        assert callees == {"repro.app.Service.step", "repro.util.helper"}
        assert {s.callee for s in graph.callees("repro.app.Service.step")} \
            == {"repro.app.local"}

    def test_reachability_and_chain(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        graph = project.call_graph
        parents = graph.reachable({"repro.app.Service.run"})
        assert "repro.app.local" in parents
        chain = graph.chain(parents, "repro.app.local")
        assert [s.callee for s in chain] == [
            "repro.app.Service.step", "repro.app.local"]

    def test_stop_set_blocks_expansion(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        graph = project.call_graph
        parents = graph.reachable({"repro.app.Service.run"},
                                  stop={"repro.app.Service.step"})
        assert "repro.app.Service.step" in parents   # reached
        assert "repro.app.local" not in parents      # not expanded through

    def test_cache_roundtrip_and_invalidation(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        cache = tmp_path / "graph.json"
        built = CallGraph.load_cached(project, cache)   # builds + writes
        assert cache.exists()
        cached = CallGraph.load_cached(project, cache)  # hash-match fast path
        assert cached.stats() == built.stats()
        assert {s.callee for s in cached.callees("repro.app.Service.run")} \
            == {s.callee for s in built.callees("repro.app.Service.run")}
        # Content change invalidates: the cache is rebuilt, not trusted.
        (tmp_path / "repro/util.py").write_text(
            "'''Fixture.'''\n\n\ndef helper():\n    return 3\n")
        stale = json.loads(cache.read_text())
        project2 = Project.load([tmp_path / "repro"], repo_root=tmp_path)
        CallGraph.load_cached(project2, cache)
        assert json.loads(cache.read_text())["files"] != stale["files"]


class TestImportGraph:
    def test_edges_and_importers(self, tmp_path):
        project = _project(tmp_path, {
            "repro/a.py": "'''A.'''\nfrom repro.b import thing\n",
            "repro/b.py": "'''B.'''\nthing = 1\n",
        })
        graph = ImportGraph(project)
        assert graph.imports["repro.a"] == ["repro.b"]
        assert graph.importers_of("repro.b") == ["repro.a"]

    def test_lazy_reexports_count_as_imports(self, tmp_path):
        project = _project(tmp_path, {
            "repro/_lazy.py": "'''Helper.'''\ndef lazy_exports(p, e): pass\n",
            "repro/pkg/__init__.py": (
                "'''Pkg.'''\nfrom repro._lazy import lazy_exports\n"
                "__getattr__, __dir__ = lazy_exports(__name__, {\n"
                "    'repro.pkg.sub': ('Thing',),\n})\n"),
            "repro/pkg/sub.py": "'''Sub.'''\nclass Thing: pass\n",
        })
        graph = ImportGraph(project)
        assert graph.imports["repro.pkg"] == ["repro._lazy", "repro.pkg.sub"]


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------

class TestCfg:
    def test_straight_line_reaches_exit(self):
        cfg, func = _cfg("""\
            def f():
                a = 1
                b = 2
        """)
        assert cfg.path_avoiding([ENTRY], EXIT, set()) is not None

    def test_branch_avoiding_one_arm(self):
        cfg, func = _cfg("""\
            def f(cond):
                if cond:
                    release()
                done()
        """)
        release = cfg.nodes_for([func.body[0].body[0]])
        # The else-arm skips release() entirely.
        assert cfg.path_avoiding([ENTRY], EXIT, release) is not None

    def test_try_finally_intercepts_return(self):
        cfg, func = _cfg("""\
            def f():
                try:
                    if early():
                        return
                    work()
                finally:
                    release()
        """)
        release = cfg.nodes_for(func.body[0].finalbody)
        # Every path out — including the early return — runs the finally.
        assert cfg.path_avoiding([ENTRY], EXIT, release) is None

    def test_except_handler_reachable_from_try_body(self):
        cfg, func = _cfg("""\
            def f():
                try:
                    work()
                except ValueError:
                    cleanup()
                done()
        """)
        handler = cfg.nodes_for(func.body[0].handlers[0].body)
        (handler_node,) = handler
        assert cfg.path_avoiding([ENTRY], handler_node, set()) is not None

    def test_loop_back_edge_allows_second_visit(self):
        cfg, func = _cfg("""\
            def f(items):
                for item in items:
                    first()
                    second()
        """)
        loop = func.body[0]
        first_node = id(loop.body[0])
        second_node = id(loop.body[1])
        # second() can run again after itself (via the back edge).
        assert cfg.reachable_between(second_node, second_node, set())
        # ...but not without passing first() again.
        assert not cfg.reachable_between(
            second_node, second_node, {first_node})


# ---------------------------------------------------------------------------
# REP010 — leaked request grants
# ---------------------------------------------------------------------------

LEAK_BUG = {"repro/app.py": """\
    '''Fixture.'''


    def worker(sim, resource):
        req = resource.request()
        yield req
        if sim.now > 10:
            return
        resource.release(req)
"""}

LEAK_PRAGMA = {"repro/app.py": """\
    '''Fixture.'''


    def worker(sim, resource):
        # lint: disable=REP010 -- fixture twin: leak is intentional here
        req = resource.request()
        yield req
        if sim.now > 10:
            return
        resource.release(req)
"""}

LEAK_CLEAN = {"repro/app.py": """\
    '''Fixture.'''


    def worker(sim, resource):
        req = resource.request()
        try:
            yield req
            if sim.now > 10:
                return
        finally:
            resource.release(req)
"""}


class TestLeakedRequest:
    def test_planted_leak_caught_with_trace(self, tmp_path):
        (finding,) = _run(tmp_path, LEAK_BUG, rule_ids={"REP010"})
        assert finding.rule_id == "REP010"
        assert "leaks on some paths" in finding.message
        assert finding.trace
        assert "acquired here" in finding.trace[0].note

    def test_pragma_twin_silenced(self, tmp_path):
        assert _run(tmp_path, LEAK_PRAGMA, rule_ids={"REP010"}) == []

    def test_try_finally_release_is_clean(self, tmp_path):
        assert _run(tmp_path, LEAK_CLEAN, rule_ids={"REP010"}) == []

    def test_never_released_grant_caught(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def worker(sim, resource):
                req = resource.request()
                yield req
        """}
        (finding,) = _run(tmp_path, files, rule_ids={"REP010"})
        assert "never released" in finding.message

    def test_escaped_grant_not_flagged(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def worker(sim, resource, pool):
                req = resource.request()
                pool.track(req)
                yield req
        """}
        assert _run(tmp_path, files, rule_ids={"REP010"}) == []


# ---------------------------------------------------------------------------
# REP011 / REP012 — event misuse
# ---------------------------------------------------------------------------

DOUBLE_YIELD_BUG = {"repro/app.py": """\
    '''Fixture.'''


    def waiter(sim):
        evt = sim.event()
        yield evt
        yield evt
"""}

DOUBLE_YIELD_PRAGMA = {"repro/app.py": """\
    '''Fixture.'''


    def waiter(sim):
        evt = sim.event()
        yield evt
        yield evt  # lint: disable=REP011 -- fixture twin
"""}


class TestDoubleYield:
    def test_planted_double_yield_caught(self, tmp_path):
        (finding,) = _run(tmp_path, DOUBLE_YIELD_BUG, rule_ids={"REP011"})
        assert finding.rule_id == "REP011"
        assert finding.line == 7
        assert [h.note for h in finding.trace] == [
            "'evt' first yielded", "yielded again, already consumed"]

    def test_pragma_twin_silenced(self, tmp_path):
        assert _run(tmp_path, DOUBLE_YIELD_PRAGMA, rule_ids={"REP011"}) == []

    def test_rebinding_between_yields_is_clean(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def waiter(sim):
                evt = sim.event()
                yield evt
                evt = sim.event()
                yield evt
        """}
        assert _run(tmp_path, files, rule_ids={"REP011"}) == []


class TestStaleLoopYield:
    def test_planted_stale_loop_caught(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def ticker(sim):
                evt = sim.event()
                while True:
                    yield evt
        """}
        (finding,) = _run(tmp_path, files, rule_ids={"REP012"})
        assert finding.rule_id == "REP012"
        assert "never rebinds" in finding.message

    def test_pragma_twin_silenced(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def ticker(sim):
                evt = sim.event()
                while True:
                    yield evt  # lint: disable=stale-loop-yield -- twin
        """}
        assert _run(tmp_path, files, rule_ids={"REP012"}) == []

    def test_rebound_inside_loop_is_clean(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def ticker(sim):
                while True:
                    evt = sim.event()
                    yield evt
        """}
        assert _run(tmp_path, files, rule_ids={"REP012"}) == []


# ---------------------------------------------------------------------------
# REP013 — unguarded backend reach
# ---------------------------------------------------------------------------

REACH_BUG = {"repro/app.py": """\
    '''Fixture.'''


    def boot(sim, store):
        sim.process(pump(sim, store))


    def pump(sim, store):
        yield sim.timeout(1.0)
        fetch(store)


    def fetch(store):
        return store.backend.get("x")
"""}

REACH_GUARDED = {"repro/app.py": """\
    '''Fixture.'''

    from repro.guards import with_timeout


    def boot(sim, store):
        sim.process(pump(sim, store))


    def pump(sim, store):
        yield sim.timeout(1.0)
        fetch(store)


    def fetch(store):
        return with_timeout(store.backend.get("x"), 5.0)
""", "repro/guards.py": """\
    '''Fixture.'''


    def with_timeout(value, limit):
        return value
"""}

REACH_PRAGMA = {"repro/app.py": """\
    '''Fixture.'''


    def boot(sim, store):
        sim.process(pump(sim, store))


    def pump(sim, store):
        yield sim.timeout(1.0)
        fetch(store)


    def fetch(store):
        return store.backend.get("x")  # lint: disable=REP013 -- twin
"""}


class TestUnguardedBackendReach:
    def test_one_hop_unguarded_call_caught_with_chain(self, tmp_path):
        (finding,) = _run(tmp_path, REACH_BUG, rule_ids={"REP013"})
        assert finding.rule_id == "REP013"
        assert "store.backend.get" in finding.message
        # Trace: pump -> fetch hop, then the sink itself.
        assert [h.func for h in finding.trace] == [
            "repro.app.pump", "repro.app.fetch"]
        assert "unguarded" in finding.trace[-1].note

    def test_guard_on_chain_stops_traversal(self, tmp_path):
        assert _run(tmp_path, REACH_GUARDED, rule_ids={"REP013"}) == []

    def test_pragma_twin_silenced(self, tmp_path):
        assert _run(tmp_path, REACH_PRAGMA, rule_ids={"REP013"}) == []

    def test_unreachable_backend_call_not_flagged(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture: fetch is never called from any process root.'''


            def boot(sim):
                sim.process(idle(sim))


            def idle(sim):
                yield sim.timeout(1.0)


            def fetch(store):
                return store.backend.get("x")
        """}
        assert _run(tmp_path, files, rule_ids={"REP013"}) == []


# ---------------------------------------------------------------------------
# REP014 / REP015 — interprocedural taint
# ---------------------------------------------------------------------------

CLOCK_TAINT_BUG = {"repro/app.py": """\
    '''Fixture.'''

    import time


    def stamp():
        return time.time()


    def proc(sim):
        delay = stamp()
        yield sim.timeout(delay)
"""}

RNG_TAINT_BUG = {"repro/app.py": """\
    '''Fixture.'''

    import numpy as np


    def jitter():
        return np.random.uniform()


    def proc(sim):
        yield sim.timeout(jitter())
"""}


class TestTaint:
    def test_laundered_wall_clock_caught_with_witness(self, tmp_path):
        (finding,) = _run(tmp_path, CLOCK_TAINT_BUG, rule_ids={"REP014"})
        assert finding.rule_id == "REP014"
        assert "time.time" in finding.message
        notes = [h.note for h in finding.trace]
        assert "wall-clock read: time.time()" in notes[0]
        assert "tainted value returned" in notes
        assert notes[-1] == "flows into .timeout()"

    def test_unseeded_rng_through_helper_caught(self, tmp_path):
        (finding,) = _run(tmp_path, RNG_TAINT_BUG, rule_ids={"REP015"})
        assert finding.rule_id == "REP015"
        assert "unseeded global RNG draw" in finding.trace[0].note

    def test_pragma_on_sink_line_silences(self, tmp_path):
        files = {"repro/app.py": CLOCK_TAINT_BUG["repro/app.py"].replace(
            "yield sim.timeout(delay)",
            "yield sim.timeout(delay)  # lint: disable=REP014 -- twin")}
        assert _run(tmp_path, files, rule_ids={"REP014"}) == []

    def test_source_inside_sink_left_to_per_file_rule(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture: REP001's territory, not the taint pass's.'''

            import time


            def proc(sim):
                yield sim.timeout(time.time())
        """}
        assert _run(tmp_path, files, rule_ids={"REP014"}) == []

    def test_seeded_substream_not_tainted(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def proc(sim):
                delay = sim.random.spawn("svc").exponential(1.0)
                yield sim.timeout(delay)
        """}
        assert _run(tmp_path, files, rule_ids={"REP014", "REP015"}) == []


# ---------------------------------------------------------------------------
# REP016 / REP017 / REP018 — telemetry schema cross-check
# ---------------------------------------------------------------------------

TELEMETRY_BASE = """\
    '''Fixture.'''


    def wire(bus, reg):
        bus.publish("frontdoor.shed", subject="t0")
        reg.counter("frontdoor.requests_total")
"""

DEAD_GLOB_BUG = {"repro/app.py": """\
    '''Fixture.'''


    def wire(bus, reg):
        bus.publish("frontdoor.shed", subject="t0")
        reg.counter("frontdoor.requests_total")
        bus.subscribe(print, kinds=("frontdor.*",))
"""}


class TestTelemetryCrossCheck:
    def test_dead_subscriber_glob_caught_with_hint(self, tmp_path):
        (finding,) = _run(tmp_path, DEAD_GLOB_BUG, rule_ids={"REP016"})
        assert finding.rule_id == "REP016"
        assert "frontdor.*" in finding.message
        assert "did you mean 'frontdoor.shed'" in finding.message

    def test_dead_glob_pragma_twin_silenced(self, tmp_path):
        files = {"repro/app.py": DEAD_GLOB_BUG["repro/app.py"].replace(
            'kinds=("frontdor.*",))',
            'kinds=("frontdor.*",))  # lint: disable=REP016 -- twin')}
        assert _run(tmp_path, files, rule_ids={"REP016"}) == []

    def test_live_glob_is_clean(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def wire(bus, reg):
                bus.publish("frontdoor.shed", subject="t0")
                bus.subscribe(print, kinds=("frontdoor.*",))
        """}
        assert _run(tmp_path, files, rule_ids={"REP016"}) == []

    def test_misspelled_documented_kind_caught(self, tmp_path):
        files = {
            "repro/app.py": TELEMETRY_BASE,
            "docs/observability.md": """\
                # Observability

                ## Event kinds currently published

                | kind | meaning |
                |------|---------|
                | `frontdoor.shed` | load shed |
                | `frontdoor.sheed` | typo'd row |
            """,
        }
        (finding,) = _run(tmp_path, files, rule_ids={"REP017"})
        assert finding.rule_id == "REP017"
        assert "frontdoor.sheed" in finding.message
        assert finding.path == "docs/observability.md"

    def test_forwarded_kind_counts_as_published(self, tmp_path):
        files = {
            "repro/app.py": """\
                '''Fixture: constant kind through a one-hop forwarder.'''


                def relay(bus, kind, subject):
                    bus.publish(kind, subject=subject)


                def fire(bus):
                    relay(bus, "chaos.incident", "disk")
            """,
            "docs/observability.md": """\
                # Observability

                ## Event kinds currently published

                | kind | meaning |
                |------|---------|
                | `chaos.incident` | injected fault |
            """,
        }
        assert _run(tmp_path, files, rule_ids={"REP017"}) == []

    def test_conditional_kind_records_both_arms(self, tmp_path):
        files = {
            "repro/app.py": """\
                '''Fixture: IfExp publish kind with constant arms.'''


                def report(bus, ok):
                    bus.publish("trigger.fired" if ok else "trigger.failed",
                                subject="rule")
            """,
            "docs/observability.md": """\
                # Observability

                ## Event kinds currently published

                | kind | meaning |
                |------|---------|
                | `trigger.fired` | workflow done |
                | `trigger.failed` | workflow errored |
            """,
        }
        assert _run(tmp_path, files, rule_ids={"REP016", "REP017"}) == []

    def test_dict_lookup_kind_records_every_value(self, tmp_path):
        files = {
            "repro/app.py": """\
                '''Fixture: publish kind via a module-level dict literal.'''

                _KIND = {0: "breaker.trip", 1: "breaker.probe",
                         2: "breaker.close"}


                def transition(bus, new):
                    bus.publish(_KIND[new], subject="target")


                def watch(bus):
                    bus.subscribe(print, kinds=("breaker.probe",))
            """,
            "docs/observability.md": """\
                # Observability

                ## Event kinds currently published

                | kind | meaning |
                |------|---------|
                | `breaker.trip` | breaker opened |
                | `breaker.probe` | half-open probe |
                | `breaker.close` | breaker closed |
            """,
        }
        assert _run(tmp_path, files, rule_ids={"REP016", "REP017"}) == []

    def test_unknown_metric_read_caught(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture.'''


            def wire(reg):
                reg.counter("frontdoor.requests_total")
                return reg.total("frontdoor.requests_totl")
        """}
        (finding,) = _run(tmp_path, files, rule_ids={"REP018"})
        assert finding.rule_id == "REP018"
        assert "did you mean 'frontdoor.requests_total'" in finding.message

    def test_fstring_prefix_registration_covers_dynamic_names(self, tmp_path):
        files = {"repro/app.py": """\
            '''Fixture: dynamically-registered metric namespace.'''


            def wire(reg, counters):
                for key in counters:
                    reg.gauge_fn(f"metadata.{key}", counters[key])
                return reg.value("metadata.wal_records")
        """}
        assert _run(tmp_path, files, rule_ids={"REP018"}) == []

    def test_ci_required_metric_must_be_registered(self, tmp_path):
        files = {
            "repro/app.py": TELEMETRY_BASE,
            ".github/workflows/ci.yml": (
                "      - run: python -m repro.cli report "
                "--require frontdoor.nope_total\n"),
        }
        (finding,) = _run(tmp_path, files, rule_ids={"REP018"})
        assert "required by CI" in finding.message
        assert finding.path == ".github/workflows/ci.yml"


# ---------------------------------------------------------------------------
# the real codebase is the ultimate fixture
# ---------------------------------------------------------------------------

class TestRealCodebase:
    def test_whole_program_pass_is_clean(self):
        project = build_project([REPO_SRC])
        findings = run_whole_program([], project=project)
        assert findings == [], "\n".join(f.location + " " + f.message
                                         for f in findings)

    def test_repo_call_graph_is_substantial(self):
        project = build_project([REPO_SRC])
        stats = project.call_graph.stats()
        assert stats["modules"] > 100
        assert stats["functions"] > 1000
        assert stats["edges"] > 500
        assert stats["generators"] > 50


# ---------------------------------------------------------------------------
# CLI satellites: --rules / --wpa / --changed / --prune-baseline / traces
# ---------------------------------------------------------------------------

class TestCliWholeProgram:
    def test_wpa_flag_reports_trace_in_text(self, tmp_path, capsys):
        _write_tree(tmp_path, REACH_BUG)
        code = lint_main([str(tmp_path / "repro"), "--wpa", "--no-baseline",
                          "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP013" in out
        assert "source:" in out and "sink:" in out

    def test_wpa_trace_serialised_in_json(self, tmp_path, capsys):
        _write_tree(tmp_path, CLOCK_TAINT_BUG)
        lint_main([str(tmp_path / "repro"), "--wpa", "--no-baseline",
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        (finding,) = [f for f in payload["findings"]
                      if f["rule_id"] == "REP014"]
        assert len(finding["trace"]) >= 3
        assert {"path", "line", "func", "note"} <= set(finding["trace"][0])
        assert finding["trace"][-1]["note"] == "flows into .timeout()"

    def test_rules_selection_skips_other_engines(self, tmp_path, capsys):
        _write_tree(tmp_path, {"repro/app.py": (
            "'''Fixture.'''\n"
            "import random\n"                    # per-file stdlib-random
            "def wire(bus):\n"
            "    bus.publish('a.b')\n"
            "    bus.subscribe(print, kinds=('c.*',))\n"  # REP016
        )})
        code = lint_main([str(tmp_path / "repro"), "--rules", "REP016",
                          "--no-baseline", "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP016" in out
        assert "stdlib-random" not in out

    def test_unknown_rule_token_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--rules", "REP999"]) == 2

    def test_list_rules_tags_whole_program(self, capsys):
        lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert "REP013" in out
        assert "[whole-program]" in out
        assert "REP006" not in out

    def test_graph_cache_written_and_reused(self, tmp_path, capsys):
        _write_tree(tmp_path, REACH_GUARDED)
        cache = tmp_path / "graph.json"
        assert lint_main([str(tmp_path / "repro"), "--wpa", "--no-baseline",
                          "--graph-cache", str(cache)]) == 0
        assert cache.exists()
        stamp = cache.read_text()
        assert lint_main([str(tmp_path / "repro"), "--wpa", "--no-baseline",
                          "--graph-cache", str(cache)]) == 0
        assert cache.read_text() == stamp  # hash-match: not rewritten


class TestPruneBaseline:
    def test_stale_entries_dropped_fresh_kept(self, tmp_path, capsys):
        from repro.analysis import Baseline

        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import time\na = time.time()\nimport random\n")
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(pkg), "--write-baseline",
                          "--baseline", str(baseline)]) == 0
        assert len(Baseline.load(baseline)) == 2
        # Fix one of the two violations; its entry is now stale.
        (pkg / "bad.py").write_text("import time\na = time.time()\n")
        assert lint_main([str(pkg), "--prune-baseline",
                          "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 stale entry dropped, 1 kept" in out
        assert len(Baseline.load(baseline)) == 1
        # The kept entry still baselines the surviving finding.
        assert lint_main([str(pkg), "--baseline", str(baseline)]) == 0


class TestChangedMode:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", "-c", "user.email=t@e.st", "-c", "user.name=t", *args],
            cwd=cwd, check=True, capture_output=True)

    def test_only_changed_files_reported(self, tmp_path, monkeypatch, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "old.py").write_text("import time\na = time.time()\n")
        (pkg / "new.py").write_text("'''Fine.'''\nX = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "seed")
        (pkg / "new.py").write_text("import random\n")
        monkeypatch.chdir(tmp_path)
        code = lint_main([str(pkg), "--changed", "--no-baseline", "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "new.py" in out and "stdlib-random" in out
        assert "old.py" not in out  # unchanged: pre-existing debt not reported

    def test_bad_ref_exits_two(self, tmp_path, monkeypatch, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "a.py").write_text("'''Fine.'''\n")
        self._git(tmp_path, "init", "-q")
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(pkg), "--changed", "no-such-ref",
                          "--no-baseline"]) == 2
