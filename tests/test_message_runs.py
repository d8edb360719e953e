"""Message runs: ``GaiaApp.deliver_tx`` executes a transaction's maximal
runs of one message type with one route call each (DESIGN.md, "Message
runs").

A run may look up once what depends only on the message object, the
channel or the proof height; a transfer run moves a stretch of one
repeated message's tokens in one bank move, and a recv run hands a
stretch of packets that differ only in their sequence to the transfer
app in one call; but its failures must stay those of message by message
execution.  Each case below fails message
``k`` of a transfer, recv or ack run and checks, against a replay of the
chain's own gas stream, that:

* the code and log are the failing message's;
* ``gas_used`` is the overhead plus the draws of messages ``0..k`` (the
  failing message is charged before it executes, and nothing after it);
* every piece of state is rolled back (the fee and the sequence stay, as
  in the SDK), and the gas stream's next draw is the one after message
  ``k``'s.

Successful recv stretches (mint, un-escrow, forward, malformed payload)
are checked the same way, and an oracle runs each as one stretch and as
stretches of one.  A mixed transaction then pins the events and state of
a successful transaction made of four runs, and a chain-only run at the
mempool limit pins the report bytes of the send path.
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro import ExperimentConfig, run_experiment
from repro.cosmos.accounts import Wallet
from repro.cosmos.app import TRANSFER_DENOM
from repro.cosmos.gas import GasSchedule
from repro.cosmos.journal import Journal
from repro.ibc import keys
from repro.ibc.channel import ChannelOrder, ChannelState
from repro.ibc.msgs import MsgAcknowledgement, MsgTransfer
from repro.ibc.packet import Acknowledgement, Height
from repro.ibc.transfer import encode_forward_receiver, escrow_address

from tests.ibc_harness import DirectChain, IbcPair
from tests.test_journal_rollback import snapshot

#: Messages per run; the failure lands on message ``k`` of the run.
RUN = 6
POSITIONS = (0, 1, RUN // 2, RUN - 1)
AMOUNT = 10
SUCCESS = Acknowledgement(success=True, result="AQ==")
#: A forwarded packet's events, in the order a lone packet makes them.
FORWARDED = ["recv_packet", "send_packet", "write_acknowledgement"]
#: Gas of the ``MsgUpdateClient`` in front of a relayer's run (no jitter).
UPDATE_CLIENT_GAS = 80_000


@pytest.fixture(scope="module")
def net():
    """A-B with a transfer channel, plus an A-C and a B-C channel: the
    second channel on A and on B is what a run closes."""
    ab = IbcPair()
    c = DirectChain("direct-c")
    ac = IbcPair(chains=(ab.a, c))
    bc = IbcPair(chains=(ab.b, c))
    return ab, ac, bc


@contextmanager
def closed(chain, channel_id):
    channels, key = chain.ibc.channels, ("transfer", channel_id)
    end = channels[key]
    channels[key] = replace(end, state=ChannelState.CLOSED)
    try:
        yield
    finally:
        channels[key] = end


def replay(chain) -> GasSchedule:
    """A schedule drawing the same stream as ``chain``'s, from here on."""
    rng = copy.deepcopy(chain.app.gas_schedule._rng)
    return GasSchedule(chain.app.cal, rng=rng)


def transfer(
    pair, amount=AMOUNT, sender=None, channel=None, denom=TRANSFER_DENOM, receiver=None
) -> MsgTransfer:
    sender = sender or pair.user
    return MsgTransfer(
        source_port="transfer",
        source_channel=channel or pair.chan_a,
        denom=denom,
        amount=amount,
        sender=sender.wallet.address,
        receiver=receiver or pair.receiver.address,
        timeout_height=Height(0, pair.b.height + 100),
        signer=sender.wallet.address,
    )


def send(pair, count=RUN, channel=None, receiver=None):
    """``count`` packets of one transfer sent from A in one transaction."""
    msg = transfer(pair, channel=channel, receiver=receiver)
    result = pair.exec_ok(pair.a, pair.user, [msg] * count)
    return [e.packet for e in result.events if e.type == "send_packet"]


def check_failed_run(chain, factory, prefix_gas, msgs, k, *, code, log, gas_limit=10**9):
    """Run ``msgs`` (``prefix_gas`` of fixed-gas messages, then the run)
    as one tx on ``chain``; it must fail at run message ``k`` as
    ``code``/``log`` and roll back."""
    schedule = replay(chain)
    kinds = [m.kind for m in msgs if m.kind != "update_client"]
    draws = [schedule.gas_for_msg(kind) for kind in kinds[: k + 1]]
    before = snapshot(chain)
    (result,) = chain.make_block([factory.build(msgs, gas_limit=gas_limit)])
    assert (result.code, result.log) == (code, log)
    assert result.events == []
    assert result.gas_used == chain.app.cal.gas_tx_overhead + prefix_gas + sum(draws)
    assert snapshot(chain) == before
    # The stream moved by exactly the draws of messages 0..k.
    kind = kinds[0]
    assert chain.app.gas_schedule.gas_for_msg(kind) == schedule.gas_for_msg(kind)


def check_ok_run(chain, factory, prefix_gas, msgs):
    """Run ``msgs`` (``prefix_gas`` of fixed-gas messages, then the run) as
    one tx on ``chain``; it must succeed and bill each run message's draw
    of the chain's gas stream.  Returns the run's events."""
    schedule = replay(chain)
    run = [m for m in msgs if m.kind != "update_client"]
    draws = [schedule.gas_for_msg(m.kind) for m in run]
    (result,) = chain.make_block([factory.build(msgs, gas_limit=10**9)])
    assert result.ok, result.log
    assert result.gas_used == chain.app.cal.gas_tx_overhead + prefix_gas + sum(draws)
    kind = run[0].kind
    assert chain.app.gas_schedule.gas_for_msg(kind) == schedule.gas_for_msg(kind)
    return result.events[len(msgs) - len(run):]


def acks_of(events) -> list:
    return [e.ack for e in events if e.type == "write_acknowledgement"]


def insufficient(factory, held, denom=TRANSFER_DENOM) -> str:
    """The bank's log for a move of ``AMOUNT`` that finds ``held``."""
    return f"{factory.wallet.address} has {held}{denom}, needs {AMOUNT}{denom}"


def out_of_gas_limit(chain, prefix_gas, msgs, k) -> int:
    """A gas limit that message ``k``'s charge is the first to exceed."""
    schedule = replay(chain)
    kinds = [m.kind for m in msgs if m.kind != "update_client"]
    draws = [schedule.gas_for_msg(kind) for kind in kinds[: k + 1]]
    return chain.app.cal.gas_tx_overhead + prefix_gas + sum(draws) - 1


def ibc_log(exc: str, message: str) -> tuple[int, str]:
    return 1, f"{exc}: {message}"


# -- transfer runs -------------------------------------------------------------


@pytest.mark.parametrize("k", POSITIONS)
def test_transfer_run_insufficient_funds(net, k):
    ab, _, _ = net
    poor = ab.a.fund_wallet(Wallet.named(f"runs-poor-{k}"), tokens=k * AMOUNT + AMOUNT - 1)
    msgs = [transfer(ab, sender=poor)] * RUN  # one object, as the CLI sends it
    check_failed_run(ab.a, poor, 0, msgs, k, code=5, log=insufficient(poor, AMOUNT - 1))


def test_transfer_stretch_at_exactly_its_balance(net):
    """A balance of exactly ``RUN x AMOUNT`` pays every message of a
    stretch; one token less fails its last message, as message-by-message
    execution does, with the bank's log and the gas of all ``RUN`` draws."""
    ab, _, _ = net
    exact = ab.a.fund_wallet(Wallet.named("runs-exact"), tokens=RUN * AMOUNT)
    events = check_ok_run(ab.a, exact, 0, [transfer(ab, sender=exact)] * RUN)
    assert [e.type for e in events] == ["send_packet"] * RUN
    assert ab.a.bank.balance(exact.wallet.address, TRANSFER_DENOM) == 0
    short = ab.a.fund_wallet(Wallet.named("runs-short"), tokens=RUN * AMOUNT - 1)
    msgs = [transfer(ab, sender=short)] * RUN
    log = insufficient(short, AMOUNT - 1)
    check_failed_run(ab.a, short, 0, msgs, RUN - 1, code=5, log=log)


@pytest.mark.parametrize("k", range(3))
def test_second_stretch_failure_rolls_back_the_first(net, k):
    """Two objects of one type make two stretches of one run; the second
    stretch failing at its message ``k`` (funds, then gas) rolls back the
    first stretch's moves, sequences and packets as well."""
    ab, _, _ = net
    first_cost, second_cost = 3 * AMOUNT, 2 * AMOUNT
    tokens = first_cost + k * second_cost + second_cost - 1
    poor = ab.a.fund_wallet(Wallet.named(f"runs-two-{k}"), tokens=tokens)
    msgs = [transfer(ab, sender=poor)] * 3 + [transfer(ab, amount=2 * AMOUNT, sender=poor)] * 3
    log = f"{poor.wallet.address} has {second_cost - 1}{TRANSFER_DENOM}, needs {second_cost}{TRANSFER_DENOM}"
    check_failed_run(ab.a, poor, 0, msgs, 3 + k, code=5, log=log)
    msgs = [transfer(ab)] * 3 + [transfer(ab, amount=2 * AMOUNT)] * 3
    limit = out_of_gas_limit(ab.a, 0, msgs, 3 + k)
    log = f"out of gas: limit {limit}, used {limit + 1}"
    check_failed_run(ab.a, ab.user, 0, msgs, 3 + k, code=11, log=log, gas_limit=limit)


def voucher_holder(ab, name, vouchers):
    """A wallet on B holding ``vouchers`` of A's token (and no other
    voucher), whose sends home over the voucher's own hop burn."""
    holder = ab.b.fund_wallet(Wallet.named(name))
    ab.relay_recv([ab.transfer(amount=vouchers, receiver=holder.wallet.address)])
    return holder


def test_burn_stretch_keeps_supply(net):
    ab, _, _ = net
    voucher = ab.voucher_denom()
    holder = voucher_holder(ab, "runs-burn-ok", RUN * AMOUNT)
    supply = ab.b.bank.supply(voucher)
    back = ab.reverse()
    events = check_ok_run(ab.b, holder, 0, [transfer(back, sender=holder, denom=voucher)] * RUN)
    assert [e.type for e in events] == ["send_packet"] * RUN
    assert ab.b.bank.balance(holder.wallet.address, voucher) == 0
    assert ab.b.bank.supply(voucher) == supply - RUN * AMOUNT
    assert ab.b.bank.check_supply_invariant([voucher, TRANSFER_DENOM])


@pytest.mark.parametrize("k", POSITIONS)
def test_burn_stretch_insufficient_funds(net, k):
    ab, _, _ = net
    voucher = ab.voucher_denom()
    holder = voucher_holder(ab, f"runs-burn-poor-{k}", k * AMOUNT + AMOUNT - 1)
    msgs = [transfer(ab.reverse(), sender=holder, denom=voucher)] * RUN
    log = insufficient(holder, AMOUNT - 1, voucher)
    check_failed_run(ab.b, holder, 0, msgs, k, code=5, log=log)
    assert ab.b.bank.check_supply_invariant([voucher, TRANSFER_DENOM])


def test_transfer_from_another_account_fails(net):
    """A transfer's sender must sign its transaction, as in the SDK, whose
    ``MsgTransfer`` signer is its sender: a user-signed stretch from the
    escrow account fails at its first message, with a bank send's code 4
    and one message's gas, and moves nothing."""
    ab, _, _ = net
    msg = replace(transfer(ab), sender=escrow_address("transfer", ab.chan_a))
    log = "transfer sender must be the tx signer"
    check_failed_run(ab.a, ab.user, 0, [msg] * RUN, 0, code=4, log=log)


def test_forward_from_the_onward_escrow_runs_every_packet(net):
    """A forward hop sends from its fallback address, which signs nothing:
    a fallback that is the onward channel's escrow is credited, then moves
    the tokens to itself, and every packet of the stretch goes onward."""
    ab, _, bc = net
    escrow = escrow_address("transfer", bc.chan_a)
    receiver = encode_forward_receiver(
        [(escrow, "transfer", bc.chan_a)], bc.receiver.address
    )
    packets = send(ab, receiver=receiver)
    voucher = ab.voucher_denom()
    held = ab.b.bank.balance(escrow, voucher)
    events = check_ok_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, ab.recv_msgs(packets))
    assert [e.type for e in events] == FORWARDED * RUN
    assert acks_of(events) == [SUCCESS] * RUN
    assert ab.b.bank.balance(escrow, voucher) == held + RUN * AMOUNT


@pytest.mark.parametrize("count", [1, RUN, 100])
def test_escrow_stretch_journal_cost(net, monkeypatch, count):
    """A successful ``count``-message escrow stretch records ``3 + 2 x
    count`` undo entries: the sender's and the escrow's balance and
    ``next_sequence_send`` once, then each packet's commitment and
    sent-packet entry."""
    ab, _, _ = net
    entries = []
    commit = Journal.commit

    def counting_commit(journal):
        entries.append(len(journal))
        commit(journal)

    monkeypatch.setattr(Journal, "commit", counting_commit)
    ab.exec_ok(ab.a, ab.user, [transfer(ab)] * count)
    assert entries == [3 + 2 * count]


@pytest.mark.parametrize("k", POSITIONS)
def test_transfer_run_out_of_gas(net, k):
    ab, _, _ = net
    msgs = [transfer(ab)] * RUN
    limit = out_of_gas_limit(ab.a, 0, msgs, k)
    log = f"out of gas: limit {limit}, used {limit + 1}"
    check_failed_run(ab.a, ab.user, 0, msgs, k, code=11, log=log, gas_limit=limit)


@pytest.mark.parametrize("k", POSITIONS)
def test_transfer_run_unknown_channel(net, k):
    ab, _, _ = net
    msgs = [transfer(ab)] * RUN
    msgs[k] = transfer(ab, channel="channel-99")
    code, log = ibc_log("ChannelError", "unknown channel transfer/channel-99")
    check_failed_run(ab.a, ab.user, 0, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_transfer_run_closed_channel(net, k):
    ab, ac, _ = net
    msgs = [transfer(ab)] * RUN
    msgs[k] = transfer(ab, channel=ac.chan_a)
    code, log = ibc_log(
        "ChannelError",
        f"channel transfer/{ac.chan_a} in state CLOSED, expected one of ['OPEN']",
    )
    with closed(ab.a, ac.chan_a):
        check_failed_run(ab.a, ab.user, 0, msgs, k, code=code, log=log)


# -- recv runs -----------------------------------------------------------------


def recv_run(ab):
    """``UpdateClient`` + ``RUN`` fresh recv messages for B."""
    return ab.recv_msgs(send(ab))


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_out_of_gas(net, k):
    ab, _, _ = net
    msgs = recv_run(ab)
    limit = out_of_gas_limit(ab.b, UPDATE_CLIENT_GAS, msgs, k)
    log = f"out of gas: limit {limit}, used {limit + 1}"
    check_failed_run(
        ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=11, log=log, gas_limit=limit
    )


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_unknown_channel(net, k):
    ab, _, _ = net
    msgs = recv_run(ab)
    msg = msgs[1 + k]
    msgs[1 + k] = replace(msg, packet=replace(msg.packet, destination_channel="channel-99"))
    code, log = ibc_log("ChannelError", "unknown channel transfer/channel-99")
    check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_closed_channel(net, k):
    ab, _, bc = net
    msgs = recv_run(ab)
    msg = msgs[1 + k]
    msgs[1 + k] = replace(msg, packet=replace(msg.packet, destination_channel=bc.chan_a))
    code, log = ibc_log(
        "ChannelError",
        f"channel transfer/{bc.chan_a} in state CLOSED, expected one of ['OPEN']",
    )
    with closed(ab.b, bc.chan_a):
        check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_redundant(net, k):
    """Message ``k`` re-delivers a packet B received in an earlier block:
    the losing relayer of a race (paper §IV-A)."""
    ab, _, _ = net
    (old,) = send(ab, count=1)
    ab.relay_recv([old])
    msgs = recv_run(ab)
    msgs[1 + k] = ab.recv_msgs([old])[1]
    code, log = ibc_log(
        "RedundantPacketError",
        f"packet messages are redundant: unordered packet {old.sequence} already received"
    )
    check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_bad_proof(net, k):
    ab, _, _ = net
    msgs = recv_run(ab)
    other = msgs[1 + (k + 1) % RUN]
    msgs[1 + k] = replace(msgs[1 + k], proof_commitment=other.proof_commitment)
    packet = msgs[1 + k].packet
    expected = keys.packet_commitment_path("transfer", ab.chan_a, packet.sequence)
    code, log = ibc_log(
        "ProofVerificationError",
        f"proof is for key {other.proof_commitment.key!r}, expected {expected!r}",
    )
    check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_recv_run_ack_already_written(net, k):
    """An ack already in the table for message ``k``'s packet (planted
    without a receipt: no run leaves that) fails the run at that packet,
    after its own draw, before the stretch reaches the application."""
    ab, _, _ = net
    msgs = recv_run(ab)
    key = ("transfer", ab.chan_b, msgs[1 + k].packet.sequence)
    ab.b.ibc._acks[key] = SUCCESS
    code, log = ibc_log(
        "RedundantPacketError",
        f"packet messages are redundant: acknowledgement for packet {key[2]} "
        "already written",
    )
    try:
        check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)
    finally:
        del ab.b.ibc._acks[key]


# -- recv stretches -------------------------------------------------------------


def line():
    """A fresh A-B-C line (A-B, and B-C sharing B) with the same gas
    streams every time it is built."""
    ab = IbcPair()
    return ab, IbcPair(chains=(ab.b, DirectChain("direct-c")))


def drain(chain, escrow, held):
    """Leave ``held`` tokens in ``escrow``.  A correct chain's escrow never
    holds less than the vouchers out, so a test short of it burns the rest
    by hand, outside any transaction."""
    excess = chain.bank.balance(escrow, TRANSFER_DENOM) - held
    if excess:
        chain.bank.burn(escrow, TRANSFER_DENOM, excess)
        chain.bank.write_back()


def going_home(ab, holder_name, vouchers, receiver=None):
    """A ``RUN``-packet stretch of ``AMOUNT`` vouchers each, sent home from
    B to A by a holder that got ``vouchers`` from A (so a fresh pair's A
    escrow holds ``vouchers``); returns the relaying view and the packets."""
    holder = voucher_holder(ab, holder_name, vouchers)
    back = ab.reverse()
    msg = transfer(back, sender=holder, denom=ab.voucher_denom(), receiver=receiver)
    result = back.exec_ok(ab.b, holder, [msg] * RUN)
    return back, [e.packet for e in result.events if e.type == "send_packet"]


@pytest.mark.parametrize("short", [0, 1])
def test_unescrow_stretch_at_exactly_its_escrow(short):
    """A stretch of vouchers going home un-escrows its affordable prefix
    in one move.  An escrow holding exactly ``RUN x AMOUNT`` pays every
    packet; one token less pays all but the last, whose ack carries the
    bank's own text, as packet by packet."""
    ab, _ = line()
    back, packets = going_home(ab, "runs-home", RUN * AMOUNT)
    escrow = escrow_address("transfer", ab.chan_a)
    drain(ab.a, escrow, RUN * AMOUNT - short)
    user = ab.user.wallet.address
    before = ab.a.bank.balance(user, TRANSFER_DENOM)
    events = check_ok_run(ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, back.recv_msgs(packets))
    error = Acknowledgement(
        success=False,
        error=f"{escrow} has {AMOUNT - 1}{TRANSFER_DENOM}, needs {AMOUNT}{TRANSFER_DENOM}",
    )
    assert acks_of(events) == [SUCCESS] * (RUN - short) + [error] * short
    assert ab.a.bank.balance(user, TRANSFER_DENOM) == before + (RUN - short) * AMOUNT
    assert ab.a.bank.balance(escrow, TRANSFER_DENOM) == short * (AMOUNT - 1)
    assert ab.a.bank.check_supply_invariant([TRANSFER_DENOM])


def test_malformed_payload_stretch_fails_every_packet(net):
    """A payload the app cannot read is read once for the stretch, and
    every packet gets the same error ack; nothing is credited."""
    ab, _, _ = net
    receiver = "runs-fallback|transfer"  # a forward with no channel
    packets = send(ab, receiver=receiver)
    supply = ab.b.bank.supply(ab.voucher_denom())
    events = check_ok_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, ab.recv_msgs(packets))
    assert [e.type for e in events] == ["recv_packet", "write_acknowledgement"] * RUN
    error = Acknowledgement(success=False, error=f"malformed forward receiver {receiver!r}")
    assert acks_of(events) == [error] * RUN
    assert ab.b.bank.supply(ab.voucher_denom()) == supply


def test_forward_stretch_interleaves_events_per_packet(net):
    """A forward stretch credits the hop's fallback once and sends one
    onward stretch: each packet's events still read recv, onward send,
    ack, and the onward packets take consecutive sequences and share one
    payload and one timeout, so the next hop receives a stretch too."""
    ab, _, bc = net
    fallback = Wallet.named("runs-forward-fallback").address
    receiver = encode_forward_receiver(
        [(fallback, "transfer", bc.chan_a)], bc.receiver.address
    )
    packets = send(ab, receiver=receiver)
    first = ab.b.ibc.next_sequence_send[("transfer", bc.chan_a)]
    events = check_ok_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, ab.recv_msgs(packets))
    assert [e.type for e in events] == FORWARDED * RUN
    assert [e.packet for e in events if e.type != "send_packet"] == [
        p for p in packets for _ in range(2)
    ]
    onward = [e.packet for e in events if e.type == "send_packet"]
    assert [p.sequence for p in onward] == list(range(first, first + RUN))
    assert len({(id(p.data), id(p.timeout_height)) for p in onward}) == 1
    assert acks_of(events) == [SUCCESS] * RUN
    assert ab.b.bank.balance(fallback, ab.voucher_denom()) == 0


@pytest.mark.parametrize("k", POSITIONS)
def test_second_recv_stretch_failure_rolls_back_the_first(net, k):
    """A recv run of two payloads is two stretches; a bad proof at message
    ``k`` of the second fails the transaction after the first stretch's
    mint, and rolls that back with everything else."""
    ab, _, _ = net
    second = ab.exec_ok(ab.a, ab.user, [transfer(ab, amount=2 * AMOUNT)] * RUN)
    packets = send(ab) + [e.packet for e in second.events if e.type == "send_packet"]
    msgs = ab.recv_msgs(packets)
    other = msgs[1 + RUN + (k + 1) % RUN]
    msgs[1 + RUN + k] = replace(msgs[1 + RUN + k], proof_commitment=other.proof_commitment)
    packet = msgs[1 + RUN + k].packet
    expected = keys.packet_commitment_path("transfer", ab.chan_a, packet.sequence)
    code, log = ibc_log(
        "ProofVerificationError",
        f"proof is for key {other.proof_commitment.key!r}, expected {expected!r}",
    )
    check_failed_run(ab.b, ab.relayer_b, UPDATE_CLIENT_GAS, msgs, RUN + k, code=code, log=log)


@pytest.mark.parametrize("count", [1, RUN, 100])
def test_mint_stretch_journal_cost(net, monkeypatch, count):
    """A successful ``count``-packet mint stretch on an UNORDERED channel
    records ``2 + 2 x count`` undo entries: a receipt and an ack per
    packet, then the receiver's balance and the voucher supply once."""
    ab, _, _ = net
    msgs = ab.recv_msgs(send(ab, count=count))
    ab.exec_ok(ab.b, ab.relayer_b, msgs[:1])  # the client update, on its own
    entries = []
    commit = Journal.commit

    def counting_commit(journal):
        entries.append(len(journal))
        commit(journal)

    monkeypatch.setattr(Journal, "commit", counting_commit)
    ab.exec_ok(ab.b, ab.relayer_b, msgs[1:])
    assert entries == [2 + 2 * count]


# -- the stretch oracle: each packet a stretch of its own ------------------------


def mint_case(ab, bc):
    return ab, send(ab)


def unescrow_case(ab, bc):
    """Vouchers going home to an escrow one token short of the stretch."""
    back, packets = going_home(ab, "oracle-home", RUN * AMOUNT)
    drain(ab.a, escrow_address("transfer", ab.chan_a), RUN * AMOUNT - 1)
    return back, packets


def forward_case(ab, bc):
    fallback = Wallet.named("oracle-fallback").address
    receiver = encode_forward_receiver([(fallback, "transfer", bc.chan_a)], "final")
    return ab, send(ab, receiver=receiver)


def forward_home_case(ab, bc):
    """Vouchers going home, forwarded back over the channel they arrived
    on: each packet takes the tokens out of the escrow and puts them back,
    so an escrow holding two and a half packets' worth pays them all."""
    fallback = Wallet.named("oracle-fallback").address
    back = ab.reverse()
    receiver = encode_forward_receiver([(fallback, "transfer", ab.chan_a)], "final")
    packets = going_home(ab, "oracle-round", RUN * AMOUNT, receiver)[1]
    drain(ab.a, escrow_address("transfer", ab.chan_a), 2 * AMOUNT + AMOUNT // 2)
    return back, packets


def home_to_escrow_case(ab, bc):
    """Vouchers going home to the escrow itself, which holds one packet's
    worth: each un-escrow moves the tokens to where they are."""
    escrow = escrow_address("transfer", ab.chan_a)
    back, packets = going_home(ab, "oracle-self", RUN * AMOUNT, escrow)
    drain(ab.a, escrow, AMOUNT)
    return back, packets


def malformed_case(ab, bc):
    return ab, send(ab, receiver="oracle-fallback|transfer")


@pytest.mark.parametrize(
    "case",
    [mint_case, unescrow_case, forward_case, forward_home_case, home_to_escrow_case, malformed_case],
)
def test_stretch_receives_as_packets_one_by_one(case):
    """One recv run on two fresh, identical lines: once as relayed, one
    stretch, and once with each packet's payload copied into a bytes
    object of its own, so that each packet is a stretch of one.  The
    acks, the events, ``gas_used``, every balance, the supply, the whole
    IBC and store state and the app hash must agree."""
    outcomes = []
    for split in (False, True):
        pair, packets = case(*line())
        msgs = pair.recv_msgs(packets)
        payloads = {id(m.packet.data) for m in msgs[1:]}
        assert len(payloads) == 1
        if split:
            msgs[1:] = [
                replace(m, packet=replace(m.packet, data=bytes(bytearray(m.packet.data))))
                for m in msgs[1:]
            ]
            assert len({id(m.packet.data) for m in msgs[1:]}) == RUN
        chain = pair.b
        (result,) = chain.make_block([pair.relayer_b.build(msgs, gas_limit=10**9)])
        assert result.ok, result.log
        outcomes.append((result.gas_used, result.events, snapshot(chain), chain.app_hash))
    assert outcomes[0] == outcomes[1]


# -- ack runs ------------------------------------------------------------------


def ack_run(ab):
    """``UpdateClient`` + ``RUN`` ack messages for A of packets B received."""
    packets = send(ab)
    ab.relay_recv(packets)
    return ab.ack_msgs(packets)


@pytest.mark.parametrize("k", POSITIONS)
def test_ack_run_out_of_gas(net, k):
    ab, _, _ = net
    msgs = ack_run(ab)
    limit = out_of_gas_limit(ab.a, UPDATE_CLIENT_GAS, msgs, k)
    log = f"out of gas: limit {limit}, used {limit + 1}"
    check_failed_run(
        ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, msgs, k, code=11, log=log, gas_limit=limit
    )


@pytest.mark.parametrize("k", POSITIONS)
def test_ack_run_unknown_channel(net, k):
    """An ack on a channel A does not have finds no commitment first."""
    ab, _, _ = net
    msgs = ack_run(ab)
    msg = msgs[1 + k]
    msgs[1 + k] = replace(msg, packet=replace(msg.packet, source_channel="channel-99"))
    code, log = ibc_log(
        "RedundantPacketError",
        "packet messages are redundant: "
        f"no commitment for packet {msg.packet.sequence}; already acknowledged",
    )
    check_failed_run(ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_ack_run_closed_channel(net, k):
    """The commitment checks pass, then the closed channel fails it."""
    ab, ac, _ = net
    msgs = ack_run(ab)
    (packet,) = send(ac, count=1)
    msgs[1 + k] = MsgAcknowledgement(
        packet=packet,
        acknowledgement=Acknowledgement(success=True, result="AQ=="),
        proof_acked=None,
        proof_height=msgs[0].header.height,
    )
    code, log = ibc_log(
        "ChannelError",
        f"channel transfer/{ac.chan_a} in state CLOSED, expected one of ['OPEN']",
    )
    with closed(ab.a, ac.chan_a):
        check_failed_run(ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_ack_run_redundant(net, k):
    ab, _, _ = net
    (old,) = send(ab, count=1)
    ab.relay_recv([old])
    ab.relay_ack([old])
    msgs = ack_run(ab)
    msgs[1 + k] = ab.ack_msgs([old])[1]
    code, log = ibc_log(
        "RedundantPacketError",
        "packet messages are redundant: "
        f"no commitment for packet {old.sequence}; already acknowledged",
    )
    check_failed_run(ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


@pytest.mark.parametrize("k", POSITIONS)
def test_ack_run_bad_proof(net, k):
    ab, _, _ = net
    msgs = ack_run(ab)
    other = msgs[1 + (k + 1) % RUN]
    msgs[1 + k] = replace(msgs[1 + k], proof_acked=other.proof_acked)
    packet = msgs[1 + k].packet
    expected = keys.packet_acknowledgement_path("transfer", ab.chan_b, packet.sequence)
    code, log = ibc_log(
        "ProofVerificationError",
        f"proof is for key {other.proof_acked.key!r}, expected {expected!r}",
    )
    check_failed_run(ab.a, ab.relayer_a, UPDATE_CLIENT_GAS, msgs, k, code=code, log=log)


# -- a mixed transaction ---------------------------------------------------------


def test_mixed_transaction_events_and_state_are_pinned():
    """``UpdateClient``, recv x 2, ack x 4 and transfer x 3 (one object
    twice, then another, sent by the relayer that signs) in one
    transaction on A.  The digests were taken from message-by-message
    execution, before runs existed."""
    pair = IbcPair()
    out = [pair.transfer(amount=5 + i) for i in range(4)]
    pair.relay_recv(out)
    back = pair.reverse()
    home = [back.transfer(amount=2 + i, denom=pair.voucher_denom()) for i in range(2)]
    repeated = transfer(pair, amount=7, sender=pair.relayer_a)
    distinct = transfer(pair, amount=9, sender=pair.relayer_a)
    msgs = [
        *back.recv_msgs(home),
        *pair.ack_msgs(out)[1:],
        repeated,
        repeated,
        distinct,
    ]
    (result,) = pair.a.make_block([pair.relayer_a.build(msgs, gas_limit=10**9)])
    assert result.ok, result.log
    assert [e.type for e in result.events] == (
        ["update_client"]
        + ["recv_packet", "write_acknowledgement"] * 2
        + ["acknowledge_packet"] * 4
        + ["send_packet"] * 3
    )
    digest = hashlib.sha256(repr(result.events).encode()).hexdigest()
    assert (result.gas_used, digest, pair.a.app_hash.hex()) == PINNED_MIXED


PINNED_MIXED = (
    507_990,
    "f318117318c16935405dadc908dde9f49c51ea4e36d0402ed21274ac4c5a57ac",
    "034b9922bb6a4755ccd7c9389b5927a0683c05fd952894bbc8a438ea113fec47",
)


# -- a chain-only run at the mempool limit ---------------------------------------


def test_chain_only_run_at_mempool_limit_is_pinned():
    """45 000 transfers in Hermes CLI transactions of 100 repeats of one
    ``MsgTransfer``, sent with no relayer (Fig. 6 / Table I's send side).
    No registry scenario is chain-only, so this pins the bytes of the
    transfer-run path; the digest was taken from message-by-message bank
    moves, before stretches existed."""
    report = run_experiment(
        ExperimentConfig(input_rate=3000, measurement_blocks=3, chain_only=True, seed=3)
    )
    assert report.workload.committed_chain == 45_000
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "f6f0b050e38a2b44cbc1d93182c99ef8002b34ddccb4908ec95686a3d4ec396b"


# -- a declared deviation: ORDERED timeouts leave the channel open ---------------


def test_ordered_timeout_leaves_channel_open_deviation():
    """Known deviation (DESIGN.md, "IBC deviations"): ibc-go v3's
    ``TimeoutExecuted`` closes an ORDERED channel, and its
    ``TimeoutPacket`` requires the channel OPEN.  Here
    ``IbcModule.timeout_packet`` leaves it OPEN, because the relayer
    times out a batch of ORDERED packets in one transaction, one
    ``MsgTimeout`` each, and closing would fail all but the first (it
    would need ``MsgTimeoutOnClose``).  Changing this is a protocol
    change: change DESIGN.md and this test with it."""
    pair = IbcPair(ordering=ChannelOrder.ORDERED)
    packets = [pair.transfer(amount=10, timeout_blocks=1) for _ in range(2)]
    pair.b.make_block([])
    pair.b.make_block([])
    result = pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs(packets))
    assert [e.type for e in result.events][1:] == ["timeout_packet"] * 2
    assert pair.a.ibc.channels[("transfer", pair.chan_a)].state is ChannelState.OPEN
    # The channel still sends, where ibc-go would refuse a closed channel,
    # but the destination still waits for the first timed-out sequence, so
    # the new packet can only time out in turn.
    later = pair.transfer(amount=10)
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, pair.recv_msgs([later]))
    assert result.log == (
        f"PacketError: ordered channel expects sequence {packets[0].sequence}, "
        f"got {later.sequence}"
    )
