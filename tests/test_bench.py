"""Tests for the hot-path bench scenario and the --jobs sweep runner."""

import pytest

from repro.bench import HotpathResult, main, run_hotpath, run_sweep
from repro.simkit import Simulator


def _draw_worker(seed):
    """A cheap seeded worker: a few deterministic RNG draws plus sim time."""
    sim = Simulator(seed=seed)

    def proc():
        yield sim.timeout(1.5)
        return sim.random.integers(0, 2**31)

    p = sim.process(proc())
    sim.run()
    return (seed, p.value, sim.now)


class TestRunSweep:
    def test_sequential_matches_parallel_merge(self):
        seeds = [5, 3, 9, 1]
        sequential = run_sweep(_draw_worker, seeds, jobs=1)
        parallel = run_sweep(_draw_worker, seeds, jobs=2)
        # Deterministic merge: input-seed order, identical values,
        # regardless of worker scheduling.
        assert sequential == parallel
        assert [r[0] for r in parallel] == seeds

    def test_single_seed_never_forks(self):
        assert run_sweep(_draw_worker, [7], jobs=8) == [_draw_worker(7)]

    def test_empty_sweep(self):
        assert run_sweep(_draw_worker, [], jobs=4) == []


class TestHotpathScenario:
    @pytest.fixture(scope="class")
    def twin_runs(self):
        kwargs = dict(hours=0.02, instruments=1, agents=2)
        return run_hotpath(seed=16, **kwargs), run_hotpath(seed=16, **kwargs)

    def test_same_seed_runs_are_deterministic(self, twin_runs):
        first, second = twin_runs
        assert first.deterministic() == second.deterministic()

    def test_scenario_exercises_both_subsystems(self, twin_runs):
        result, _ = twin_runs
        assert result.frames > 0
        assert result.background_flows > 0
        assert result.solves > 0
        assert result.bytes_delivered > 0
        assert result.events_scheduled > 0

    def test_profile_counts_interpreter_calls(self):
        result = run_hotpath(seed=16, hours=0.01, instruments=1, profile=True)
        assert result.interpreter_calls > 0
        assert result.calls_per_frame > 0

    def test_deterministic_excludes_host_measurements(self):
        result = run_hotpath(seed=16, hours=0.01, instruments=1)
        values = result.deterministic()
        assert result.wall_seconds not in values or result.wall_seconds == 0
        assert len(values) == len(HotpathResult.__dataclass_fields__) - 2


class TestCli:
    def test_main_prints_seed_rows(self, capsys):
        assert main(["--seeds", "16", "17", "--jobs", "2",
                     "--hours", "0.01", "--instruments", "1"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].split()[:2] == ["seed", "frames"]
        assert lines[1].split()[0] == "16"
        assert lines[2].split()[0] == "17"
