"""Tests for gas metering, transactions and the ante handler."""

import pytest

from repro import calibration as cal
from repro.calibration import DEFAULT_CALIBRATION
from repro.cosmos.accounts import AccountKeeper, Wallet
from repro.cosmos.ante import AnteHandler
from repro.cosmos.gas import GasMeter, GasSchedule
from repro.cosmos.tx import MsgSend, TxFactory, chunk_msgs
from repro.sim.rng import RngRegistry
from repro.errors import ChainError, OutOfGasError, SequenceMismatchError


# -- gas ------------------------------------------------------------------------


def test_gas_meter_tracks_and_limits():
    meter = GasMeter(limit=100)
    meter.consume(60)
    assert meter.remaining == 40
    with pytest.raises(OutOfGasError):
        meter.consume(41)


def test_gas_schedule_means_match_paper():
    """100-message tx gas averages must track §IV-A's reported figures."""
    schedule = GasSchedule(rng=RngRegistry(0).stream("test/gas-means"))
    n = 20_000
    for kind, target in (
        ("transfer", 36_692),
        ("recv_packet", 72_387),
        ("acknowledgement", 31_075),
    ):
        mean = sum(schedule.gas_for_msg(kind) for _ in range(n)) / n
        assert mean == pytest.approx(target, rel=0.01), kind


def test_gas_jitter_bands_match_paper():
    """Per-message variance stays within 1% / 4.1% / 7.6% bands."""
    schedule = GasSchedule(rng=RngRegistry(1).stream("test/gas-bands"))
    for kind, base, band in (
        ("transfer", 36_692, 0.01),
        ("recv_packet", 72_387, 0.041),
        ("acknowledgement", 31_075, 0.076),
    ):
        values = [schedule.gas_for_msg(kind) for _ in range(2_000)]
        assert min(values) >= base * (1 - band) - 1
        assert max(values) <= base * (1 + band) + 1


@pytest.mark.parametrize("kind", ["transfer", "recv_packet", "acknowledgement", "connection_open_init"])
def test_charge_draws_and_fails_as_one_message_at_a_time(kind):
    """``charge(meter, kind, count)`` makes the draws of ``count``
    ``gas_for_msg`` calls, bit for bit, and fails at the same message with
    the same total as consuming them one by one; the messages after the
    failing one draw nothing."""
    def schedule():
        return GasSchedule(rng=RngRegistry(2).stream("test/gas-charge"))

    one_by_one, stretch = schedule(), schedule()
    draws = [one_by_one.gas_for_msg(kind) for _ in range(50)]
    meter = GasMeter(limit=10**12)
    stretch.charge(meter, kind, 0)
    assert meter.consumed == 0
    stretch.charge(meter, kind, 50)
    assert meter.consumed == sum(draws)
    assert stretch.gas_for_msg(kind) == one_by_one.gas_for_msg(kind)

    for k in (0, 1, 25, 49):
        one_by_one, stretch = schedule(), schedule()
        draws = [one_by_one.gas_for_msg(kind) for _ in range(k + 1)]
        limit = 1_000 + sum(draws) - 1  # message k's draw is the first too many
        meter = GasMeter(limit=limit, consumed=1_000)
        with pytest.raises(OutOfGasError) as caught:
            stretch.charge(meter, kind, 50)
        assert (caught.value.used, meter.consumed) == (limit + 1, limit + 1)
        assert stretch.gas_for_msg(kind) == one_by_one.gas_for_msg(kind)


def test_estimate_is_deterministic():
    schedule = GasSchedule()
    kinds = ["transfer"] * 100
    assert schedule.estimate_tx_gas(kinds) == schedule.estimate_tx_gas(kinds)
    assert schedule.estimate_tx_gas(kinds) == pytest.approx(
        DEFAULT_CALIBRATION.gas_tx_overhead
        + 100 * DEFAULT_CALIBRATION.gas_per_transfer_msg
    )


# -- tx -------------------------------------------------------------------------


def _factory(name="tx-user") -> TxFactory:
    return TxFactory(Wallet.named(name), DEFAULT_CALIBRATION)


def test_tx_hash_unique_per_build():
    factory = _factory()
    msg = MsgSend(sender=factory.wallet.address, recipient="r", denom="d", amount=1)
    t1 = factory.build([msg], gas_limit=100)
    t2 = factory.build([msg], gas_limit=100)
    assert t1.hash != t2.hash  # different sequence/nonce


def test_tx_enforces_msg_limit():
    factory = _factory("limit-user")
    msgs = [MsgSend(sender="s", recipient="r", denom="d", amount=1)] * 101
    with pytest.raises(ChainError):
        factory.build(msgs, gas_limit=100)


def test_tx_requires_messages():
    factory = _factory("empty-user")
    with pytest.raises(ChainError):
        factory.build([], gas_limit=100)


def test_factory_increments_sequence_optimistically():
    factory = _factory("seq-user")
    msg = MsgSend(sender="s", recipient="r", denom="d", amount=1)
    t1 = factory.build([msg], gas_limit=10)
    t2 = factory.build([msg], gas_limit=10)
    assert (t1.sequence, t2.sequence) == (0, 1)
    factory.resync_sequence(7)
    assert factory.build([msg], gas_limit=10).sequence == 7


def test_tx_size_model():
    factory = _factory("size-user")
    msg = MsgSend(sender="s", recipient="r", denom="d", amount=1)
    tx = factory.build([msg] * 10, gas_limit=10)
    assert tx.size_bytes == cal.TX_BYTES_OVERHEAD + 10 * cal.TX_BYTES_PER_MSG


def test_chunk_msgs():
    msgs = list(range(250))
    chunks = chunk_msgs(msgs, 100)
    assert [len(c) for c in chunks] == [100, 100, 50]
    assert chunks[0][0] == 0 and chunks[2][-1] == 249
    with pytest.raises(ChainError):
        chunk_msgs(msgs, 0)


# -- ante -----------------------------------------------------------------------


@pytest.fixture
def accounts_and_ante():
    keeper = AccountKeeper()
    ante = AnteHandler(keeper)
    wallet = Wallet.named("ante-user")
    keeper.get_or_create(wallet.public_key)
    return keeper, ante, wallet


def test_ante_accepts_correct_sequence(accounts_and_ante):
    keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    tx = factory.build([msg], gas_limit=10)
    ante.validate(tx)
    assert keeper.require(wallet.address).sequence == 1


def test_ante_check_only_does_not_increment(accounts_and_ante):
    keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    tx = factory.build([msg], gas_limit=10)
    ante.validate(tx, check_only=True)
    assert keeper.require(wallet.address).sequence == 0


def test_ante_rejects_wrong_sequence(accounts_and_ante):
    """The paper's §V 'account sequence mismatch' deployment challenge."""
    _keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    factory.local_sequence = 5  # stale local view
    tx = factory.build([msg], gas_limit=10)
    with pytest.raises(SequenceMismatchError) as excinfo:
        ante.validate(tx)
    assert "account sequence mismatch" in str(excinfo.value)
    assert excinfo.value.code == 32


def test_second_tx_same_block_sequence_rule(accounts_and_ante):
    """Only one tx per account per block: the second identical-sequence tx
    fails after the first executes."""
    _keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    tx1 = factory.build([msg], gas_limit=10, sequence=0)
    tx2 = factory.build([msg], gas_limit=10, sequence=0)
    ante.validate(tx1)
    with pytest.raises(SequenceMismatchError):
        ante.validate(tx2)


def test_ante_mempool_path_uses_expected_sequence(accounts_and_ante):
    _keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    tx_next = factory.build([msg], gas_limit=10, sequence=3)
    # Mempool check-state says 3 is next: passes even though chain is at 0.
    ante.validate_for_mempool(tx_next, expected_sequence=3)
    with pytest.raises(SequenceMismatchError):
        ante.validate_for_mempool(tx_next, expected_sequence=4)


def test_ante_unknown_account(accounts_and_ante):
    _keeper, ante, _wallet = accounts_and_ante
    stranger = TxFactory(Wallet.named("stranger-ante"), DEFAULT_CALIBRATION)
    msg = MsgSend(sender=stranger.wallet.address, recipient="r", denom="d", amount=1)
    tx = stranger.build([msg], gas_limit=10)
    with pytest.raises(ChainError):
        ante.validate(tx)


def test_ante_rejects_forged_signature(accounts_and_ante):
    _keeper, ante, wallet = accounts_and_ante
    factory = TxFactory(wallet, DEFAULT_CALIBRATION)
    msg = MsgSend(sender=wallet.address, recipient="r", denom="d", amount=1)
    tx = factory.build([msg], gas_limit=10)
    tx.signature = b"forged"
    with pytest.raises(ChainError, match="signature"):
        ante.validate(tx)
