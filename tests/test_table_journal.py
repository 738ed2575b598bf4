"""The table journal's undo log against a whole-window copy.

:class:`~repro.core.tables.TableSnapshot` copies no table bytes: while
it is open, the first store to each word records the word's old bytes,
whoever makes the store.  The oracle here is what the journal replaced:
a copy of the whole window taken when the journal opens.  After any
seeded mix of stores — single and batched, inside and outside the
window, repeated on one word, from update transactions and from a
concurrent fault injector — a rollback must leave the window equal to
that copy, leave everything outside it alone, restore the bookkeeping
and bump ``generation`` once.
"""

import random

import pytest

from repro.build import build_program, compile_object
from repro.core.tables import IdTables, TableSnapshot, bary_index
from repro.core.transactions import UpdateLock, UpdateTransaction
from repro.errors import MemoryFault, RuntimeError_
from repro.faults.harness import LOAD_PHASES
from repro.faults.injectors import bit_flip_injector
from repro.faults.plane import FaultPlane
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.service.loop import ServiceLoop
from repro.vm.memory import TableMemory
from repro.vm.scheduler import Scheduler

TARY_SIZE = 1 << 16
BARY_ENTRIES = 1 << 10

PROGRAM = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { return 99; }
        print_int(libfn(10));
        return dlclose(h);
    }
"""}
LIBRARY = "int libfn(int x) { return x * 3 + 1; }"


def fresh_tables(rng):
    tables = IdTables(TableMemory(tary_size=TARY_SIZE,
                                  bary_entries=BARY_ENTRIES))
    tary = {4 * rng.randrange(TARY_SIZE // 4): rng.randrange(64)
            for _ in range(200)}
    bary = {rng.randrange(BARY_ENTRIES): rng.randrange(64)
            for _ in range(100)}
    tables.install(tary, bary, version=rng.randrange(1, 100))
    return tables


def window_copy(memory, tary_range, bary_range):
    """The oracle: the window's bytes, copied whole."""
    return (bytes(memory.tary[tary_range[0]:tary_range[1]]),
            bytes(memory.bary[bary_range[0]:bary_range[1]]))


def outside_copy(memory, tary_range, bary_range):
    return (bytes(memory.tary[:tary_range[0]])
            + bytes(memory.tary[tary_range[1]:]),
            bytes(memory.bary[:bary_range[0]])
            + bytes(memory.bary[bary_range[1]:]))


def random_window(rng):
    if rng.random() < 0.3:
        return None, None
    lo = 4 * rng.randrange(TARY_SIZE // 8)
    site_lo = rng.randrange(BARY_ENTRIES // 2)
    return ((lo, lo + 4 * rng.randrange(1, TARY_SIZE // 8)),
            (site_lo, site_lo + rng.randrange(1, BARY_ENTRIES // 2)))


def random_stores(rng, memory, tables, lock, count):
    """A seeded mix of every kind of table store."""
    words = [4 * rng.randrange(TARY_SIZE // 4) for _ in range(32)]
    sites = [rng.randrange(BARY_ENTRIES) for _ in range(16)]
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            memory.write_tary(rng.choice(words), rng.getrandbits(32))
        elif kind == 1:
            memory.write_bary(bary_index(rng.choice(sites)),
                              rng.getrandbits(32))
        elif kind == 2:
            memory.store_tary([(rng.choice(words), rng.getrandbits(32))
                               for _ in range(rng.randrange(1, 9))])
        elif kind == 3:
            memory.store_bary([(bary_index(rng.choice(sites)),
                                rng.getrandbits(32))
                               for _ in range(rng.randrange(1, 9))])
        elif kind == 4:
            # a whole update transaction: rewrites, new entries, zeroes
            new_tary = {address: rng.randrange(64) for address in
                        rng.sample(sorted(tables.tary_ecns), 50)}
            new_tary.update({rng.choice(words): rng.randrange(64)
                             for _ in range(8)})
            new_bary = {site: rng.randrange(64) for site in
                        rng.sample(sorted(tables.bary_ecns), 30)}
            for _ in UpdateTransaction(tables, lock, new_tary, new_bary,
                                       batch=rng.choice((1, 7, 64))
                                       ).run():
                pass
        else:
            # one word stored to again and again
            word = rng.choice(words)
            for _ in range(rng.randrange(2, 5)):
                memory.write_tary(word, rng.getrandbits(32))


@pytest.mark.parametrize("seed", range(40))
def test_rollback_equals_whole_window_copy(seed):
    rng = random.Random(seed)
    tables = fresh_tables(rng)
    memory = tables.memory
    lock = UpdateLock()
    random_stores(rng, memory, tables, lock, 10)  # before the open
    tary_range, site_range = random_window(rng)
    journal = TableSnapshot(tables, tary_range=tary_range,
                            site_range=site_range)
    window = (journal.tary_range, journal.bary_range)
    at_open = window_copy(memory, *window)
    bookkeeping = (tables.version, dict(tables.tary_ecns),
                   dict(tables.bary_ecns), tables.updates_since_reset)
    random_stores(rng, memory, tables, lock, 30)
    outside = outside_copy(memory, *window)
    generation = memory.generation
    journal.rollback()
    assert window_copy(memory, *window) == at_open
    assert outside_copy(memory, *window) == outside
    assert memory.generation == generation + 1
    assert (tables.version, tables.tary_ecns, tables.bary_ecns,
            tables.updates_since_reset) == bookkeeping
    assert memory.undo is None


@pytest.mark.parametrize("seed", range(10))
def test_concurrent_bitflip_is_rolled_back(seed):
    """A bit flip that lands while an update runs under the journal is
    a store like any other: the rollback undoes it too."""
    rng = random.Random(seed)
    tables = fresh_tables(rng)
    memory = tables.memory
    journal = TableSnapshot(tables)
    window = (journal.tary_range, journal.bary_range)
    at_open = window_copy(memory, *window)
    new_tary = {address: (ecn + 1) % 64
                for address, ecn in tables.tary_ecns.items()}
    scheduler = Scheduler(seed=seed,
                          weights={"inject:bitflip-tary": 4.0})
    scheduler.add_generator(
        UpdateTransaction(tables, UpdateLock(), new_tary,
                          dict(tables.bary_ecns), batch=8).run(),
        name="update")
    scheduler.add_generator(
        bit_flip_injector(tables, seed=seed, flips=3, table="tary"),
        name="inject:bitflip-tary")
    assert scheduler.run().fault is None
    assert window_copy(memory, *window) != at_open
    journal.rollback()
    assert window_copy(memory, *window) == at_open


def test_flip_before_the_update_writes_the_word():
    """The first store records the word, not the update's own store:
    a flip that the update then overwrites still rolls back to the
    bytes at open."""
    tables = fresh_tables(random.Random(0))
    memory = tables.memory
    address = sorted(tables.tary_ecns)[0]
    at_open = bytes(memory.tary)
    journal = TableSnapshot(tables)
    memory.write_tary(address, memory.read_tary(address) ^ (1 << 9))
    for _ in UpdateTransaction(tables, UpdateLock(),
                               dict(tables.tary_ecns),
                               dict(tables.bary_ecns)).run():
        pass
    journal.rollback()
    assert bytes(memory.tary) == at_open


def test_commit_closes_the_log():
    tables = fresh_tables(random.Random(1))
    memory = tables.memory
    journal = TableSnapshot(tables)
    memory.write_tary(8, 0x101)
    journal.commit()
    assert memory.undo is None and not journal.open
    logged = [dict(log) for log in journal.log]
    memory.write_tary(12, 0x201)
    memory.store_bary([(0, 0x301), (4, 0x401)])
    assert [dict(log) for log in journal.log] == logged
    assert 12 not in journal.log[0]
    with pytest.raises(RuntimeError_):
        journal.rollback()
    journal.commit()  # idempotent
    assert memory.read_tary(12) == 0x201


def test_one_journal_at_a_time():
    tables = fresh_tables(random.Random(2))
    journal = TableSnapshot(tables)
    with pytest.raises(RuntimeError_):
        TableSnapshot(tables)
    # a second view over the same memory (a shard) is no exception
    with pytest.raises(RuntimeError_):
        TableSnapshot(IdTables(tables.memory), tary_range=(0, 64))
    journal.rollback()
    TableSnapshot(tables).commit()
    assert tables.memory.undo is None


def test_out_of_range_store_is_a_typed_fault():
    memory = TableMemory(tary_size=64, bary_entries=4)
    with pytest.raises(MemoryFault):
        memory.write_tary(64, 1)
    with pytest.raises(MemoryFault):
        memory.store_bary([(0, 1), (16, 1)])
    assert len(memory.tary) == 64 and len(memory.bary) == 16


# ---------------------------------------------------------------------------
# Who opens journals: the dynamic linker and the coalescer close theirs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifacts():
    program = build_program(PROGRAM, mcfi=True,
                            allow_unresolved=["libfn"]).program
    return program, compile_object(LIBRARY, name="plugin")


def run_plugin(artifacts, scheduled, plane=None):
    program, library = artifacts
    runtime = Runtime(program)
    linker = DynamicLinker(runtime, **({} if plane is None else
                                       {"fault_plane": plane}))
    linker.register("plugin", library)
    before = (bytes(runtime.tables.tary), bytes(runtime.tables.bary))
    result = runtime.run_scheduled(seed=3) if scheduled else runtime.run()
    return runtime, linker, result, before


@pytest.mark.parametrize("phase", LOAD_PHASES)
@pytest.mark.parametrize("scheduled", [False, True])
def test_failed_load_closes_its_journal(artifacts, phase, scheduled):
    plane = FaultPlane(seed=0).arm(f"dlopen.{phase}")
    runtime, linker, result, before = run_plugin(artifacts, scheduled,
                                                 plane)
    assert result.exit_code == 99
    assert linker.last_journal.rolled_back
    assert (bytes(runtime.tables.tary), bytes(runtime.tables.bary)) == \
        before
    assert runtime.tables.undo is None


@pytest.mark.parametrize("scheduled", [False, True])
def test_sealed_load_and_unload_close_their_journals(artifacts,
                                                     scheduled):
    runtime, linker, result, _ = run_plugin(artifacts, scheduled)
    assert result.ok, result.violation or result.fault
    assert result.output == b"31"
    journal = linker.last_journal
    assert journal.phases[-1] == "seal" and not journal.rolled_back
    assert runtime.tables.undo is None


def test_shard_commits_close_their_journals():
    plane = FaultPlane(seed=0).arm("service.commit.step", skip=3,
                                   count=2)
    loop = ServiceLoop(tenants=8, shards=2, seed=1, churn=2,
                       fault_plane=plane)
    report = loop.run()
    assert report.failed > 0
    assert sum(shard.rollbacks for shard in loop.sharded.shards) == 2
    assert loop.memory.undo is None
    assert loop.sharded.decoded_state() == loop.replay_serial()
