"""ICS-02 light-client tests: header verification, trust, misbehaviour."""

import pytest

from repro.errors import ClientError
from repro.ibc.client import TendermintLightClient, make_signed_header
from repro.tendermint.types import BlockIDFlag, CommitSig
from repro.tendermint.validator import Validator, ValidatorSet


@pytest.fixture
def valset() -> ValidatorSet:
    return ValidatorSet.with_names([f"lc-v{i}" for i in range(5)], power=10)


@pytest.fixture
def client(valset) -> TendermintLightClient:
    return TendermintLightClient("07-tendermint-0", "target", valset)


def header(valset, height=1, time=10.0, root=b"root-1", absent=None):
    return make_signed_header(
        chain_id="target",
        height=height,
        time=time,
        root=root,
        validator_set=valset,
        absent=absent,
    )


def test_update_records_consensus_state(client, valset):
    state = client.update(header(valset), now=10.0)
    assert state.root == b"root-1"
    assert client.latest_height == 1
    assert client.root_at(1) == b"root-1"


def test_update_is_idempotent_for_same_header(client, valset):
    h = header(valset)
    client.update(h, now=10.0)
    client.update(h, now=11.0)
    assert len(client.consensus_states) == 1


def test_conflicting_header_freezes_client(client, valset):
    client.update(header(valset, root=b"root-1"), now=10.0)
    with pytest.raises(ClientError, match="frozen"):
        client.update(header(valset, root=b"DIFFERENT"), now=11.0)
    assert client.state.frozen
    with pytest.raises(ClientError, match="frozen"):
        client.update(header(valset, height=2), now=12.0)


def test_wrong_chain_id_rejected(client, valset):
    bad = make_signed_header(
        chain_id="OTHER", height=1, time=1.0, root=b"r", validator_set=valset
    )
    with pytest.raises(ClientError, match="chain id"):
        client.update(bad, now=1.0)


def test_insufficient_voting_power_rejected(client, valset):
    # Only 2 of 5 validators sign (20 of 50 power <= 2/3 threshold).
    absent = {"lc-v0", "lc-v1", "lc-v2"}
    with pytest.raises(ClientError, match="voting power"):
        client.update(header(valset, absent=absent), now=1.0)


def test_exactly_one_third_absent_is_accepted(client, valset):
    # 4 of 5 sign: 40 > 33 (2/3 of 50).
    client.update(header(valset, absent={"lc-v4"}), now=1.0)
    assert client.latest_height == 1


def test_forged_signature_rejected(client, valset):
    h = header(valset)
    forged_sigs = tuple(
        CommitSig(
            block_id_flag=s.block_id_flag,
            validator_address=s.validator_address,
            timestamp=s.timestamp,
            signature=b"forged",
        )
        for s in h.commit.signatures
    )
    from dataclasses import replace

    bad = replace(h, commit=replace(h.commit, signatures=forged_sigs))
    with pytest.raises(ClientError, match="bad signature"):
        client.update(bad, now=1.0)


def test_unknown_validator_in_commit_rejected(client, valset):
    h = header(valset)
    outsider = Validator.named("lc-outsider")
    extra = CommitSig(
        block_id_flag=BlockIDFlag.COMMIT,
        validator_address=outsider.address,
        timestamp=1.0,
        signature=outsider.private_key.sign(h.sign_bytes()),
    )
    from dataclasses import replace

    bad = replace(
        h, commit=replace(h.commit, signatures=h.commit.signatures + (extra,))
    )
    with pytest.raises(ClientError, match="unknown validator"):
        client.update(bad, now=1.0)


def test_non_positive_height_rejected(client, valset):
    with pytest.raises(ClientError, match="positive"):
        client.update(header(valset, height=0), now=1.0)


def test_trusting_period_expiry(valset):
    client = TendermintLightClient(
        "07-tendermint-1", "target", valset, trusting_period=100.0
    )
    client.update(header(valset, height=1, time=0.0), now=0.0)
    with pytest.raises(ClientError, match="trusting period"):
        client.update(header(valset, height=2, time=200.0), now=200.0)


def test_heights_can_arrive_out_of_order(client, valset):
    client.update(header(valset, height=5, root=b"r5"), now=1.0)
    client.update(header(valset, height=3, root=b"r3"), now=2.0)
    assert client.latest_height == 5
    assert client.root_at(3) == b"r3"


def test_missing_consensus_state_raises(client, valset):
    client.update(header(valset), now=1.0)
    with pytest.raises(ClientError, match="no consensus state"):
        client.consensus_state(99)


def test_timestamp_exposed(client, valset):
    client.update(header(valset, time=42.5), now=50.0)
    assert abs(client.consensus_state(1).timestamp - 42.5) < 1e-9


def test_fold_memos_are_kept_for_the_two_latest_roots(client):
    first = client.fold_memo(b"root-1")
    assert client.fold_memo(b"root-1") is first
    second = client.fold_memo(b"root-2")
    third = client.fold_memo(b"root-3")
    assert len({id(first), id(second), id(third)}) == 3
    assert client.fold_memo(b"root-2") is second
    assert client.fold_memo(b"root-3") is third
    assert client.fold_memo(b"root-1") is not first  # the oldest was dropped
