"""Per-rule lint tests: one violating and one clean snippet per rule."""

import pytest

from repro.analysis import Linter


def _findings(source, relpath="repro/example.py"):
    return Linter().lint_source(source, relpath)


def _rules(source, relpath="repro/example.py"):
    return sorted({f.rule for f in _findings(source, relpath)})


class TestWallClock:
    def test_flags_time_time(self):
        src = "import time\nstart = time.time()\n"
        assert _rules(src) == ["wall-clock"]

    def test_flags_aliased_import(self):
        src = "import time as t\nstart = t.monotonic()\n"
        assert _rules(src) == ["wall-clock"]

    def test_flags_from_import(self):
        src = "from time import perf_counter\nstart = perf_counter()\n"
        assert _rules(src) == ["wall-clock"]

    def test_flags_datetime_now(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert _rules(src) == ["wall-clock"]

    def test_clean_sim_clock(self):
        src = "def proc(sim):\n    now = sim.now\n    yield sim.timeout(1.0)\n"
        assert _rules(src) == []

    def test_unrelated_time_method_clean(self):
        # A .time() method on an arbitrary object is not the stdlib clock.
        src = "elapsed = stopwatch.time()\n"
        assert _rules(src) == []


class TestStdlibRandom:
    def test_flags_import(self):
        assert _rules("import random\n") == ["stdlib-random"]

    def test_flags_from_import(self):
        assert _rules("from random import choice\n") == ["stdlib-random"]

    def test_exempt_in_tripwire(self):
        assert _rules("import random\n", "repro/analysis/tripwire.py") == []

    def test_clean_other_module(self):
        assert _rules("import numpy as np\n") == []


class TestRawNumpyRng:
    def test_flags_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules(src) == ["raw-numpy-rng"]

    def test_flags_global_seed(self):
        src = "import numpy\nnumpy.random.seed(0)\n"
        assert _rules(src) == ["raw-numpy-rng"]

    def test_flags_from_import(self):
        src = "from numpy.random import default_rng\n"
        assert _rules(src) == ["raw-numpy-rng"]

    def test_exempt_in_simkit_rand(self):
        src = "import numpy as np\ngen = np.random.Generator(np.random.PCG64(seq))\n"
        assert _rules(src, "repro/simkit/rand.py") == []

    def test_clean_spawned_substream(self):
        src = "draw = sim.random.spawn('component').uniform()\n"
        assert _rules(src) == []


class TestSwallowedException:
    def test_flags_blind_fallback(self):
        src = (
            "try:\n    risky()\nexcept Exception:\n    mode = 'off'\n"
        )
        assert _rules(src) == ["swallowed-exception"]

    def test_flags_bare_except_pass(self):
        src = "try:\n    risky()\nexcept:\n    pass\n"
        assert _rules(src) == ["swallowed-exception"]

    def test_clean_narrow_type(self):
        src = "try:\n    risky()\nexcept ValueError:\n    mode = 'off'\n"
        assert _rules(src) == []

    def test_clean_when_recorded(self):
        src = (
            "try:\n    risky()\nexcept Exception:\n    log.count('fallback')\n"
            "    mode = 'off'\n"
        )
        assert _rules(src) == []

    def test_clean_when_reraised(self):
        src = "try:\n    risky()\nexcept Exception:\n    raise\n"
        assert _rules(src) == []


class TestWriteOnce:
    def test_flags_overwrite_true(self):
        src = "backend.put(path, data, overwrite=True)\n"
        assert _rules(src) == ["write-once-overwrite"]

    def test_clean_plain_put(self):
        src = "backend.put(path, data)\n"
        assert _rules(src) == []

    def test_clean_overwrite_false(self):
        src = "backend.put(path, data, overwrite=False)\n"
        assert _rules(src) == []

    def test_exempt_in_tiering_backends(self):
        src = "self.put(path, data, overwrite=True)\n"
        assert _rules(src, "repro/adal/backends/tiered.py") == []


class TestUnguardedBackendIoRetired:
    """REP006 is retired: the per-file heuristic is subsumed by the
    whole-program REP013 (see tests/analysis/test_whole_program.py)."""

    def test_per_file_engine_no_longer_flags_backend_calls(self):
        src = "data = self.backend.get(path)\n"
        assert _rules(src, "repro/ingest/transfer.py") == []

    def test_rep006_id_is_not_reused(self):
        from repro.analysis import all_rules
        from repro.analysis.whole_program import whole_program_rules  # registers

        assert whole_program_rules()  # force registration
        assert all(r.id != "REP006" for r in all_rules())

    def test_rep013_is_whole_program(self):
        from repro.analysis import get_rule
        import repro.analysis.whole_program  # noqa: F401 — registers rules

        rule = get_rule("REP013")
        assert rule is not None
        assert rule.whole_program
        assert rule.name == "unguarded-backend-reach"


class TestYieldRawValue:
    def test_flags_numeric_yield(self):
        src = "def proc(sim):\n    yield 3.5\n"
        assert _rules(src) == ["yield-raw-value"]

    def test_flags_negative_constant(self):
        src = "def proc(sim):\n    yield -1\n"
        assert _rules(src) == ["yield-raw-value"]

    def test_clean_event_yield(self):
        src = "def proc(sim):\n    yield sim.timeout(3.5)\n"
        assert _rules(src) == []

    def test_clean_generator_of_numbers(self):
        # Yielding a variable is fine — only literal numbers are the classic
        # `yield delay-instead-of-timeout` typo the rule targets.
        src = "def gen(values):\n    for v in values:\n        yield v\n"
        assert _rules(src) == []


class TestSetIteration:
    def test_flags_for_over_set_literal(self):
        src = "for node in {'a', 'b'}:\n    visit(node)\n"
        assert _rules(src) == ["set-iteration"]

    def test_flags_list_of_set_call(self):
        src = "order = list(set(names))\n"
        assert _rules(src) == ["set-iteration"]

    def test_flags_comprehension_over_setcomp(self):
        src = "out = [f(x) for x in {g(y) for y in ys}]\n"
        assert _rules(src) == ["set-iteration"]

    def test_clean_sorted_set(self):
        src = "for node in sorted({'a', 'b'}):\n    visit(node)\n"
        assert _rules(src) == []

    def test_membership_test_clean(self):
        src = "ok = name in {'a', 'b'}\n"
        assert _rules(src) == []

    @pytest.mark.parametrize("src", [
        # set arithmetic in the iteration position
        "for k in set(a) | set(b):\n    use(k)\n",
        # a local bound to set arithmetic (Schema.validate's extras)
        "def f(record, fields):\n"
        "    extra = set(record) - set(fields)\n"
        "    for key in extra:\n"
        "        use(key)\n",
        # a local bound to a set call, iterated by a comprehension
        "def f(block):\n"
        "    existing = set(block.replicas)\n"
        "    return {rack(r) for r in existing}\n",
        # arithmetic on a set local, then list()
        "def f(a, b):\n    s = {x for x in a}\n    t = s & b\n"
        "    return list(t)\n",
        # a frozenset bound twice
        "def f(a, b):\n    s = frozenset(a)\n    if b:\n        s = s - b\n"
        "    for x in s:\n        use(x)\n",
        # inside a nested function, its own local
        "def f(a):\n    def g(b):\n        s = set(b)\n"
        "        return [x for x in s]\n    return g(a)\n",
    ], ids=["arithmetic", "bound-arithmetic", "bound-call", "chained",
            "rebound-frozenset", "nested"])
    def test_flags_local_set_names_and_arithmetic(self, src):
        assert _rules(src) == ["set-iteration"]

    @pytest.mark.parametrize("src", [
        "def f(a):\n    s = set(a)\n    for x in sorted(s):\n        use(x)\n",
        "def f(a):\n    s = set(a)\n    s = sorted(s)\n"
        "    for x in s:\n        use(x)\n",
        "def f(s):\n    for x in s:\n        use(x)\n",
        "def f(a, b):\n    n = a - b\n    for x in n:\n        use(x)\n",
        "def f(a, x):\n    s = set(a)\n    return x in s\n",
        "def f(a):\n    s = set(a)\n    return len(s)\n"
        "def g(s):\n    for x in s:\n        use(x)\n",
        "def f(groups):\n    for s in groups:\n        use(s)\n"
        "    s = set()\n    for x in s:\n        use(x)\n",
        "def f(a, b):\n    s = set(a)\n    s += b\n"
        "    for x in s:\n        use(x)\n",
        "S = set(a)\nfor x in S:\n    use(x)\n",
    ], ids=["sorted", "rebound", "parameter", "number", "membership",
            "other-function", "loop-target", "augmented", "module-level"])
    def test_clean_names_that_are_not_local_sets(self, src):
        assert _rules(src) == []


class TestRegistry:
    def test_all_rules_have_unique_ids(self):
        from repro.analysis import all_rules

        rules = all_rules()
        assert len(rules) >= 8
        assert len({r.id for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)

    def test_get_rule_by_name_and_id(self):
        from repro.analysis import get_rule

        assert get_rule("wall-clock") is get_rule("REP001")
        assert get_rule("no-such-rule") is None

    def test_findings_carry_location_and_snippet(self):
        src = "import time\nstart = time.time()\n"
        (finding,) = _findings(src)
        assert finding.line == 2
        assert finding.location == "repro/example.py:2:8"
        assert "time.time()" in finding.snippet


class TestAsyncBlocking:
    """REP019: blocking or sim-only calls inside async def bodies."""

    def test_flags_time_sleep(self):
        src = ("import time\n"
               "async def serve():\n"
               "    time.sleep(1.0)\n")
        assert "blocking-call-in-async" in _rules(src)

    def test_flags_aliased_time_sleep(self):
        src = ("import time as t\n"
               "async def serve():\n"
               "    t.sleep(0.5)\n")
        assert "blocking-call-in-async" in _rules(src)

    def test_flags_blocking_open(self):
        src = ("async def load(path):\n"
               "    with open(path) as fh:\n"
               "        return fh.read()\n")
        assert _rules(src) == ["blocking-call-in-async"]

    def test_flags_blocking_socket_and_subprocess(self):
        src = ("import socket\n"
               "import subprocess\n"
               "async def bad():\n"
               "    sock = socket.create_connection(('h', 1))\n"
               "    subprocess.run(['ls'])\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["blocking-call-in-async"] * 2

    def test_flags_sim_only_api(self):
        src = ("async def hybrid(sim):\n"
               "    yield sim.timeout(1.0)\n")
        assert _rules(src) == ["blocking-call-in-async"]

    def test_flags_self_sim_attribute(self):
        src = ("class S:\n"
               "    async def go(self):\n"
               "        self.sim.call_at(1.0, self.tick)\n")
        assert _rules(src) == ["blocking-call-in-async"]

    def test_async_sleep_clean(self):
        src = ("import asyncio\n"
               "async def serve():\n"
               "    await asyncio.sleep(1.0)\n")
        assert _rules(src) == []

    def test_sync_def_not_flagged(self):
        src = ("import time\n"
               "def slow():\n"
               "    time.sleep(1.0)\n")
        # Only the wall-clock rule cares about sync time.sleep usage here.
        assert "blocking-call-in-async" not in _rules(src)

    def test_nested_sync_def_not_flagged(self):
        src = ("async def outer():\n"
               "    def for_thread(path):\n"
               "        with open(path) as fh:\n"
               "            return fh.read()\n"
               "    return for_thread\n")
        assert _rules(src) == []

    def test_nested_async_def_flagged_in_its_own_right(self):
        src = ("async def outer():\n"
               "    async def inner(path):\n"
               "        return open(path)\n"
               "    return inner\n")
        assert _rules(src) == ["blocking-call-in-async"]

    def test_method_named_sleep_on_other_object_clean(self):
        src = ("async def serve(worker):\n"
               "    worker.sleep(1.0)\n")
        assert _rules(src) == []
