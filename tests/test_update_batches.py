"""Golden pins for the update transactions' store batches.

``tests/golden/update_batches.json`` pins every
:class:`~repro.core.transactions.UpdateTransaction` that runs in

* the first 50 events of the seeded dlopen-churn sequence
  (:func:`tests.test_cfg_golden.churn_events`), and
* ``tenant-service`` loop seed 1_000_003 (100 tenants, 8 shards,
  churn 2), run and then replayed serially, as the benchmark suite
  checks it.

For each transaction it holds its owner, the number of times it
yielded, and a sha256 chained over every yield.  Each link is the
``TableMemory.generation`` value at that yield and the bytes of every
word in the transaction's write set (the entries tracked before it ran
plus its new entries), Tary then Bary, in address order.  So a change
to where a batch ends, what it stores or how many stores it counts
moves a digest.  ``cfg_policy.json`` sorts the policy and looks only
after each event, so it cannot see a reordered batch.

For each churn CFG generation the file also pins the ordered
``list(tary_ecns.items())`` and ``list(bary_ecns.items())``: the Tary
batches follow ``new_tary``'s order.

A change that *means* to move the batches regenerates the file with::

    PYTHONPATH=src python -m tests.test_update_batches
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

from repro.core.transactions import UpdateTransaction
from repro.linker.dynamic_linker import DynamicLinker
from repro.service.loop import ServiceLoop
from tests.test_cfg_golden import CHURN_SEED, churn_events

GOLDEN = Path(__file__).parent / "golden" / "update_batches.json"

CHURN_EVENTS = 50
SERVICE = dict(tenants=100, shards=8, churn=2, seed=1_000_003)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _words(buf: bytearray, indices) -> bytes:
    view = memoryview(buf)
    try:
        return b"".join([view[index:index + 4] for index in indices])
    finally:
        view.release()


class Recorder:
    """Records every update transaction and churn CFG generation run
    while :meth:`patched` is active."""

    def __init__(self) -> None:
        self.transactions: list = []
        self.generations: list = []

    @contextlib.contextmanager
    def patched(self):
        run = UpdateTransaction.run
        generate = DynamicLinker._generate_cfg

        def observed_run(transaction):
            return self._observe(transaction, run(transaction))

        def observed_generate(linker):
            plt_resolution, cfg = generate(linker)
            self.generations.append(_sha(
                [list(cfg.tary_ecns.items()),
                 list(cfg.bary_ecns.items())]))
            return plt_resolution, cfg

        with mock.patch.object(UpdateTransaction, "run", observed_run), \
                mock.patch.object(DynamicLinker, "_generate_cfg",
                                  observed_generate):
            yield self

    def _observe(self, transaction, steps):
        tables = transaction.tables
        memory = tables.memory
        tary = sorted(set(tables.tary_ecns) | set(transaction.new_tary))
        bary = sorted(4 * site for site in
                      set(tables.bary_ecns) | set(transaction.new_bary))
        digest = hashlib.sha256()
        yields = 0
        try:
            for _ in steps:
                yields += 1
                digest.update(memory.generation.to_bytes(8, "little"))
                digest.update(_words(memory.tary, tary))
                digest.update(_words(memory.bary, bary))
                yield
        finally:
            steps.close()
            self.transactions.append({"owner": transaction.owner,
                                      "yields": yields,
                                      "digest": digest.hexdigest()})


def compute_churn() -> dict:
    recorder = Recorder()
    with recorder.patched():
        for _ in churn_events(CHURN_EVENTS):
            pass
    return {"seed": CHURN_SEED, "events": CHURN_EVENTS,
            "transactions": recorder.transactions,
            "generations": recorder.generations}


def compute_service() -> dict:
    recorder = Recorder()
    with recorder.patched():
        loop = ServiceLoop(**SERVICE)
        loop.run()
        ran = len(recorder.transactions)
        loop.replay_serial()
    return {"config": SERVICE,
            "run": recorder.transactions[:ran],
            "replay": recorder.transactions[ran:]}


def compute_all() -> dict:
    return {"dlopen_churn": compute_churn(),
            "tenant_service": compute_service()}


@functools.lru_cache(maxsize=None)
def golden_pins() -> dict:
    return json.loads(GOLDEN.read_text())


def _assert_same(kind: str, got: list, want: list) -> None:
    for index, (mine, pinned) in enumerate(zip(got, want)):
        assert mine == pinned, f"{kind} {index} moved"
    assert len(got) == len(want), f"{kind}: {len(got)} != {len(want)}"


def test_dlopen_churn_batches():
    pinned = golden_pins()["dlopen_churn"]
    got = compute_churn()
    assert (got["seed"], got["events"]) == (pinned["seed"],
                                            pinned["events"])
    _assert_same("generation", got["generations"], pinned["generations"])
    _assert_same("transaction", got["transactions"],
                 pinned["transactions"])


def test_tenant_service_batches():
    pinned = golden_pins()["tenant_service"]
    got = compute_service()
    assert got["config"] == pinned["config"]
    _assert_same("run transaction", got["run"], pinned["run"])
    _assert_same("replay transaction", got["replay"], pinned["replay"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
