"""Tests for the block store and transaction indexer."""

import pytest

from repro.errors import SimulationError
from repro.tendermint.abci import (
    AbciEvent,
    ExecutedBlock,
    ExecutedTx,
    ResponseDeliverTx,
)
from repro.tendermint.crypto import sha256
from repro.tendermint.store import BlockStore, TxIndexer
from repro.tendermint.types import Block, BlockID, Commit, Data, Header


class FakeTx:
    def __init__(self, tag: str, msgs: int = 1):
        self.hash = sha256(tag.encode())
        self.size_bytes = 100
        self.msg_count = msgs


def make_block(height: int, time: float, txs=()) -> Block:
    header = Header(
        chain_id="store-test",
        height=height,
        time=time,
        last_block_id=BlockID.nil(),
        last_commit_hash=b"",
        data_hash=b"",
        validators_hash=b"",
        next_validators_hash=b"",
        app_hash=b"",
        last_results_hash=b"",
        evidence_hash=b"",
        proposer_address="p",
    )
    return Block(header=header, data=Data(txs=list(txs)), evidence=[], last_commit=Commit.genesis())


def executed_for(block: Block, codes=None, events_per_tx=None) -> ExecutedBlock:
    codes = codes or [0] * len(block.data.txs)
    executed_txs = []
    for i, tx in enumerate(block.data.txs):
        events = (events_per_tx or {}).get(i, [])
        executed_txs.append(
            ExecutedTx(
                tx=tx,
                height=block.height,
                index=i,
                result=ResponseDeliverTx(code=codes[i], events=list(events)),
            )
        )
    return ExecutedBlock(
        height=block.height,
        time=block.time,
        txs=executed_txs,
        end_block_events=[],
        app_hash=b"h",
        execution_seconds=0.1,
    )


def test_blocks_must_be_contiguous():
    store = BlockStore()
    b1 = make_block(1, 5.0)
    store.save(b1, executed_for(b1))
    b3 = make_block(3, 15.0)
    with pytest.raises(SimulationError):
        store.save(b3, executed_for(b3))


def test_duplicate_height_rejected():
    store = BlockStore()
    b1 = make_block(1, 5.0)
    store.save(b1, executed_for(b1))
    with pytest.raises(SimulationError):
        store.save(make_block(1, 6.0), executed_for(b1))


def test_intervals():
    store = BlockStore()
    for height, time in ((1, 5.0), (2, 10.5), (3, 17.0)):
        block = make_block(height, time)
        store.save(block, executed_for(block))
    assert store.intervals() == pytest.approx([5.5, 6.5])
    assert store.block_time(2) == 10.5
    assert store.latest_height == 3


def test_iter_executed_range():
    store = BlockStore()
    for height in range(1, 6):
        block = make_block(height, height * 5.0)
        store.save(block, executed_for(block))
    assert [e.height for e in store.iter_executed(2, 4)] == [2, 3, 4]
    assert [e.height for e in store.iter_executed()] == [1, 2, 3, 4, 5]


def test_indexer_by_hash_and_heights():
    indexer = TxIndexer()
    tx_ok = FakeTx("a", msgs=100)
    tx_bad = FakeTx("b", msgs=100)
    event = AbciEvent(type="send_packet", attributes=(), size_bytes=400)
    block = make_block(1, 5.0, [tx_ok, tx_bad])
    executed = executed_for(
        block, codes=[0, 1], events_per_tx={0: [event] * 3}
    )
    indexer.index_block(executed)

    assert indexer.get_tx(tx_ok.hash).ok
    assert not indexer.get_tx(tx_bad.hash).ok
    assert indexer.get_tx(sha256(b"zzz")) is None

    assert indexer.events_at(1) == {"send_packet": 3}
    assert indexer.event_bytes_at(1) == 1200
    assert indexer.message_count_at(1) == 200
    # Failed-tx messages tracked separately: the Fig. 9 scan pollution.
    assert indexer.failed_message_count_at(1) == 100


def test_indexer_missing_height_defaults():
    indexer = TxIndexer()
    assert indexer.events_at(42) == {}
    assert indexer.event_bytes_at(42) == 0
    assert indexer.message_count_at(42) == 0
    assert indexer.failed_message_count_at(42) == 0


def test_executed_block_event_helpers():
    tx = FakeTx("c", msgs=2)
    block = make_block(1, 5.0, [tx])
    executed = executed_for(block)
    assert executed.message_count == 2
