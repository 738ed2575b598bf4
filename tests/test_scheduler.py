"""Tests for the deterministic interleaving scheduler."""

import random

import pytest

from repro.errors import VMError
from repro.vm.scheduler import GeneratorTask, Outcome, Scheduler, Task


class CountingTask(Task):
    def __init__(self, limit, name="count"):
        self.count = 0
        self.limit = limit
        self.name = name
        self.alive = True

    def step(self):
        self.count += 1
        if self.count >= self.limit:
            self.alive = False


class TestScheduler:
    def test_runs_until_all_tasks_finish(self):
        scheduler = Scheduler(seed=1)
        a = scheduler.add(CountingTask(10, "a"))
        b = scheduler.add(CountingTask(5, "b"))
        outcome = scheduler.run()
        assert outcome.ok
        assert a.count == 10 and b.count == 5
        assert outcome.ticks == 15

    def test_determinism_per_seed(self):
        def trace_for(seed):
            trace = []

            def gen(tag):
                for _ in range(20):
                    trace.append(tag)
                    yield

            scheduler = Scheduler(seed=seed)
            scheduler.add_generator(gen("a"), "a")
            scheduler.add_generator(gen("b"), "b")
            scheduler.run()
            return trace

        assert trace_for(7) == trace_for(7)
        assert trace_for(7) != trace_for(8)

    def test_generator_task_completion(self):
        def gen():
            yield
            yield

        scheduler = Scheduler()
        task = scheduler.add_generator(gen())
        outcome = scheduler.run()
        assert not task.alive
        assert outcome.ticks == 3  # two yields + StopIteration step

    def test_tick_limit(self):
        def forever():
            while True:
                yield

        scheduler = Scheduler()
        scheduler.add_generator(forever())
        with pytest.raises(VMError):
            scheduler.run(max_ticks=100)

    def test_outcome_describe(self):
        outcome = Outcome(exit_code=3)
        assert "exit(3)" in outcome.describe()

    def test_interleaving_actually_mixes(self):
        order = []

        def gen(tag):
            for _ in range(50):
                order.append(tag)
                yield

        scheduler = Scheduler(seed=42)
        scheduler.add_generator(gen("a"), "a")
        scheduler.add_generator(gen("b"), "b")
        scheduler.run()
        # not strictly alternating, not fully serial
        assert order != ["a"] * 50 + ["b"] * 50
        assert "a" in order and "b" in order


    def test_subclass_may_not_shadow_alive(self):
        with pytest.raises(TypeError):
            class Shadowing(Task):
                alive = True


# ---------------------------------------------------------------------------
# The kept run list against the rebuild-every-tick reference
# ---------------------------------------------------------------------------


def reference_run(tasks, seed, weights=None, max_ticks=100_000):
    """The scheduler loop that rebuilds its live list and weight totals
    on every tick; returns the tick count.  ``tasks`` is the list a mix
    appends to when it adds a task mid-run."""
    rng = random.Random(seed)

    def pick(live):
        if len(live) == 1:
            return live[0]
        if not weights:
            return live[rng.randrange(len(live))]
        totals = [max(0.0, weights.get(t.name, 1.0)) for t in live]
        total = sum(totals)
        if total <= 0.0:
            return live[rng.randrange(len(live))]
        point = rng.random() * total
        for task, weight in zip(live, totals):
            point -= weight
            if point < 0:
                return task
        return live[-1]

    ticks = 0
    while ticks < max_ticks:
        live = [t for t in tasks if t.alive]
        if not live:
            break
        pick(live).step()
        ticks += 1
    return ticks


class ScriptedTask(Task):
    """Logs its name on every step, runs the one action scheduled for
    that step, and ends after ``length`` steps."""

    def __init__(self, name, length, log):
        self.name = name
        self.length = length
        self.log = log
        self.count = 0
        self.actions = {}

    def step(self):
        self.log.append(self.name)
        self.count += 1
        action = self.actions.pop(self.count, None)
        if action is not None:
            action()
        if self.count >= self.length:
            self.alive = False


class Mix:
    """A seeded task mix.  ``add`` puts a task on the run list: the
    scheduler's ``add`` or the reference's ``list.append``.  Besides
    ending in their own step, tasks kill, spawn and revive each other
    from inside their steps, as ``kinds`` allows; ``fired`` counts the
    events that changed some task's liveness or added a task."""

    def __init__(self, seed, add, kinds):
        rng = random.Random(seed)
        self.add = add
        self.log = []
        self.fired = 0
        tasks = [ScriptedTask(f"t{i}", 1 + rng.randrange(12), self.log)
                 for i in range(2 + rng.randrange(5))]
        for task in tasks:
            add(task)
        for index in range(rng.randrange(10) if kinds else 0):
            actor = rng.choice(tasks)
            at = 1 + rng.randrange(actor.length)
            kind = rng.choice(kinds)
            if kind == "spawn":
                child = ScriptedTask(f"s{index}", 1 + rng.randrange(8),
                                     self.log)
                tasks.append(child)
                action = self._spawner(child)
            else:
                action = getattr(self, "_" + kind)(rng.choice(tasks))
            actor.actions.setdefault(at, action)

    def _spawner(self, child):
        def spawn():
            self.fired += 1
            self.add(child)
        return spawn

    def _kill(self, victim):
        def kill():
            self.fired += victim.alive
            victim.alive = False
        return kill

    def _revive(self, victim):
        def revive():
            self.fired += not victim.alive
            victim.count = 0
            victim.alive = True
        return revive


#: a zero weight, so a run list of only zero-weight tasks picks uniformly
WEIGHTS = {"t0": 4.0, "t1": 0.0, "t2": 0.0, "s1": 2.5, "t3": 0.5}


@pytest.mark.parametrize("weights", [None, WEIGHTS],
                         ids=["uniform", "weighted"])
@pytest.mark.parametrize("kinds", [
    (), ("kill",), ("spawn",), ("revive",), ("kill", "spawn", "revive")],
    ids=["own-end", "kill", "spawn", "revive", "mixed"])
def test_pick_sequence_matches_rebuild_every_tick(kinds, weights):
    fired = 0
    for seed in range(40):
        scheduler = Scheduler(seed=seed, weights=weights)
        mix = Mix(seed, scheduler.add, kinds)
        outcome = scheduler.run()
        reference_tasks = []
        reference = Mix(seed, reference_tasks.append, kinds)
        ticks = reference_run(reference_tasks, seed, weights)
        assert mix.log == reference.log, f"seed {seed}"
        assert outcome.ticks == ticks == len(mix.log), f"seed {seed}"
        fired += mix.fired
    # every kind of event changed the run list in many of the seeds
    assert fired >= (20 if kinds else 0)
