"""Relayer fleets: coordination policies, failover, and determinism.

The paper's Fig. 9 finding is that two *uncoordinated* relayers on one
channel do roughly double work — one submission per packet loses the
race.  :mod:`repro.relayer.fleet` models that baseline plus the
coordination ICS-18 leaves unspecified (static sharding, leader
election with failover, per-relayer channels); these tests pin the
partitioning math,
the redundancy accounting, the crash-failover path, and the property
everything else rests on: same seed, same bytes — for every policy.
"""

import collections

import pytest

from repro.errors import SchemaError, WorkloadError
from repro.faults import FaultSchedule, NodeCrash
from repro.framework import ExperimentConfig, FleetConfig, run_experiment
from repro.framework.runner import _ExperimentEngine
from repro.framework.setup import Testbed as _Testbed
from repro.lint import paper, scenarios
from repro.relayer.endpoint import ChainEndpoint
from repro.relayer.fleet import POLICY_NAMES, SHARD_BLOCK, Fleet
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry


def make_fleet(count: int, policy: str) -> Fleet:
    env = Environment()
    return Fleet(env, 0, FleetConfig(policy=policy), count, RngRegistry(7))


# -- policy unit tests -------------------------------------------------------


def test_builtin_policies_registered():
    """The policy set is one tuple of names, and each is a valid config."""
    assert POLICY_NAMES == ("none", "shard", "leader", "channel")
    for name in POLICY_NAMES:
        assert FleetConfig(policy=name).policy == name


def _expected_owns(policy, k, leader, index, sequence):
    """Each policy's ownership rule, restated independently of Fleet."""
    if policy == "shard":
        return k <= 1 or (sequence // SHARD_BLOCK) % k == index
    if policy == "leader":
        return index == leader
    return True  # none, channel


def _expected_may_clear(policy, leader, index):
    return policy != "leader" or index == leader


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("k", (1, 2, 4))
def test_owns_and_may_clear_truth_table(policy, k):
    """``Fleet.owns`` / ``Fleet.may_clear`` over every member index,
    every leader seat and sequences 0..40, for each policy and K."""
    fleet = make_fleet(k, policy)
    for leader in range(k):
        fleet.leader_index = leader
        for index in range(k):
            member = fleet.members[index]
            expected = _expected_may_clear(policy, leader, index)
            assert fleet.may_clear(index) is expected
            assert member.may_clear() is expected
            for sequence in range(41):
                expected = _expected_owns(policy, k, leader, index, sequence)
                assert fleet.owns(index, sequence) is expected, (
                    policy, k, leader, index, sequence
                )
                assert member.owns_sequence(sequence) is expected


def test_shard_partition_is_exhaustive_and_disjoint():
    """Every sequence is owned by exactly one member, in blocks of
    SHARD_BLOCK, and the blocks round-robin across members."""
    fleet = make_fleet(4, "shard")
    counts = [0] * fleet.count
    for sequence in range(1, 64 * SHARD_BLOCK + 1):
        owners = [
            m.index for m in fleet.members if m.owns_sequence(sequence)
        ]
        assert len(owners) == 1, sequence
        counts[owners[0]] += 1
        assert owners[0] == (sequence // SHARD_BLOCK) % fleet.count
    assert max(counts) - min(counts) <= SHARD_BLOCK  # balanced

    # A whole block lands on one member (batch locality).
    block = [m.owns_sequence(s) for m in fleet.members for s in (16, 17, 23)]
    assert sum(block) == 3


def test_none_policy_everyone_owns_everything():
    fleet = make_fleet(3, "none")
    assert all(m.owns_sequence(5) for m in fleet.members)
    assert all(m.may_clear() for m in fleet.members)


def test_leader_policy_follows_the_leader_seat():
    fleet = make_fleet(3, "leader")
    assert [m.owns_sequence(9) for m in fleet.members] == [True, False, False]
    assert [m.may_clear() for m in fleet.members] == [True, False, False]
    fleet.leader_index = 2  # as the monitor would after two crashes
    assert [m.owns_sequence(9) for m in fleet.members] == [False, False, True]
    assert [m.may_clear() for m in fleet.members] == [False, False, True]


def test_single_member_shard_owns_everything():
    fleet = make_fleet(1, "shard")
    assert all(fleet.members[0].owns_sequence(s) for s in range(1, 100))


# -- FleetConfig validation --------------------------------------------------


def test_fleet_config_rejects_bad_values():
    with pytest.raises(WorkloadError, match="sideways"):
        FleetConfig(policy="sideways")
    with pytest.raises(WorkloadError, match="rpc_retry_attempts"):
        FleetConfig(rpc_retry_attempts=-1)


def test_fleet_config_count_resolution():
    """The fleet size is always ``num_relayers``: one fleet per edge, one
    seat per relayer, every relayer seated."""
    testbed = _Testbed(ExperimentConfig(num_relayers=3, seed=3))
    (fleet,) = testbed.fleets
    assert fleet.count == 3
    assert [m.relayer for m in fleet.members] == testbed.relayers
    assert [r.member for r in testbed.relayers] == fleet.members


def test_chain_only_run_deploys_no_relayer():
    """Chain-only means no relayer: no seat, no fleet report."""
    config = ExperimentConfig(input_rate=250, measurement_blocks=3, chain_only=True)
    assert run_experiment(config).fleet is None
    testbed = _Testbed(config)
    assert testbed.relayers == []
    assert [fleet.members for fleet in testbed.fleets] == [[]]


def test_relayer_settings_have_one_source_each():
    """A relayer's fault-riding settings are its seat's FleetConfig; the
    clear interval and pull concurrency come from the experiment."""
    config = ExperimentConfig(
        num_relayers=2,
        clear_interval=3,
        pull_concurrency=2,
        relayer=FleetConfig(rpc_retry_attempts=4, resubscribe_on_disconnect=False),
        seed=3,
    )
    testbed = _Testbed(config)
    assert len(testbed.relayers) == 2
    for relayer in testbed.relayers:
        assert relayer.member.fleet.config is config.relayer
        assert relayer.endpoint_a.rpc_retry_attempts == 4
        assert relayer.endpoint_b.rpc_retry_attempts == 4
        assert relayer.supervisor.resubscribe_on_disconnect is False
        assert (relayer.clear_interval, relayer.pull_concurrency) == (3, 2)


def test_fleet_config_wire_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="cuont"):
        FleetConfig.from_dict({"cuont": 2})


def test_experiment_config_count_conflict_rejected():
    """A second fleet-size spelling cannot conflict with num_relayers:
    the relayer section has no count."""
    with pytest.raises(SchemaError, match="count"):
        ExperimentConfig.from_dict(
            {"num_relayers": 2, "relayer": {"count": 3}}
        )


# -- integration: redundancy accounting per policy ---------------------------


def fleet_run(policy, *, seed=9, crash=False, clear_interval=0, k=2):
    """A small one-edge run at K relayers under ``policy``."""
    faults = None
    if crash:
        # machine-0 hosts the workload CLI node too, so the crash lands
        # only after the fixed-total submission has finished.
        faults = FaultSchedule((NodeCrash("machine-0", at=8.0, duration=30.0),))
    config = ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        num_relayers=k,
        total_transfers=40,
        submission_blocks=1,
        seed=seed,
        run_to_completion=True,
        clear_interval=clear_interval,
        relayer=FleetConfig(policy=policy, rpc_retry_attempts=3 if crash else 0),
        faults=faults,
    )
    engine = _ExperimentEngine(config)
    report = engine.run()
    return report, engine.testbed


def test_uncoordinated_pair_does_double_work():
    """Fig. 9 baseline: at K=2 with no coordination the fleet submits
    every packet twice — redundant-delivery ratio ~2x."""
    report, _ = fleet_run("none")
    (row,) = report.fleet
    assert row.count == 2 and row.policy == "none"
    assert row.delivered == 40
    assert 1.6 <= row.redundant_ratio <= 2.4
    assert row.redundant_errors > 0
    assert all(m.recv_attempts > 0 for m in row.members)


def test_shard_pair_splits_work_without_redundancy():
    report, _ = fleet_run("shard")
    (row,) = report.fleet
    assert row.policy == "shard"
    assert row.delivered == 40
    assert row.redundant_ratio == 1.0
    assert row.redundant_errors == 0
    # The work was actually split, not won by one member.
    assert all(m.recv_attempts > 0 for m in row.members)


def test_leader_pair_standby_stays_idle_without_faults():
    report, _ = fleet_run("leader")
    (row,) = report.fleet
    assert row.policy == "leader"
    assert row.redundant_ratio == 1.0
    assert row.redundant_errors == 0
    assert row.leader.handoff_count == 0
    standby = row.members[1]
    assert standby.recv_attempts == 0
    assert standby.ack_attempts == 0


def test_leader_crash_fails_over_and_completes():
    """Mid-run leader crash: the monitor hands the seat to member 1,
    which clears the stranded packets — 100% completion, with the
    recovery latency measured in the fleet section."""
    report, testbed = fleet_run("leader", crash=True, clear_interval=2)
    (row,) = report.fleet
    leader = row.leader
    assert leader.handoff_count >= 1
    assert leader.handoffs[0].from_index == 0
    assert leader.handoffs[0].to_index == 1
    assert leader.recovery_seconds is not None
    assert leader.recovery_seconds > 0
    done = report.window.completion.as_fractions()["completed"]
    assert done == 1.0, f"only {done:.1%} completed across the failover"
    # The handoff is visible in the new leader's journal.
    (fleet,) = testbed.fleets
    assert fleet.handoffs == leader.handoffs
    assert testbed.relayers[1].log.count("fleet_leader_handoff") == 1


def test_leader_standby_never_runs_duplicate_clears():
    """The gap-recovery bugfix: a clear trigger on a K-member fleet must
    not fan out into K duplicate scans — leader-policy standbys decline
    both the periodic loop and supervisor-requested clears."""
    report, testbed = fleet_run("leader", clear_interval=2)
    leader_relayer, standby_relayer = testbed.relayers
    assert leader_relayer.log.count("packet_clear") > 0
    assert standby_relayer.log.count("packet_clear") == 0
    # Asking the standby directly is a no-op too.
    for worker in standby_relayer.workers:
        worker.request_clear()
        assert not worker._clear_pending
    # Any clear-vs-in-flight race is the leader's own (it exists at K=1
    # too); the standby contributes zero redundant submissions.
    assert standby_relayer.log.count("packet_messages_redundant") == 0


# -- no relayer re-relays what its own transactions carry --------------------


def _self_rebroadcasts(monkeypatch, config):
    """Run ``config``, counting per leg the packet messages broadcast and
    those a relayer broadcast while its own earlier transaction carrying
    that packet on that leg was unconfirmed, or after it had executed."""
    carried = collections.defaultdict(set)  # (relayer, leg) -> packet keys
    executed = collections.defaultdict(set)
    broadcasts, rebroadcasts = collections.Counter(), collections.Counter()
    submit, confirm = ChainEndpoint.submit_msgs, ChainEndpoint.confirm_txs

    def watched_submit(self, msgs, label, *args, **kwargs):
        submitted = yield from submit(self, msgs, label, *args, **kwargs)
        seat = (self.log.relayer, label)
        for entry in submitted:
            for key in entry.packet_keys:
                broadcasts[label] += 1
                if key in carried[seat] or key in executed[seat]:
                    rebroadcasts[label] += 1
                carried[seat].add(key)
        return submitted

    def watched_confirm(self, submitted, label):
        confirmed = yield from confirm(self, submitted, label)
        seat = (self.log.relayer, label)
        for entry in submitted:
            carried[seat].difference_update(entry.packet_keys)
            if entry.executed_ok:
                executed[seat].update(entry.packet_keys)
        return confirmed

    monkeypatch.setattr(ChainEndpoint, "submit_msgs", watched_submit)
    monkeypatch.setattr(ChainEndpoint, "confirm_txs", watched_confirm)
    return run_experiment(config), broadcasts, rebroadcasts


@pytest.mark.parametrize(
    "config",
    [
        # The registry's leader fleet: its clear pass re-acked 40 packets
        # while their first acks were unconfirmed.
        scenarios.lookup("fleet").build(7),
        # Fig. 9's leader crash: the successor's clear pass took all 600
        # packets while its own recvs were unconfirmed, and sent them again
        # once those had executed.
        paper.PAPER_TARGETS["fig9-fleet"].configs["leader_crash"],
    ],
    ids=["fleet", "fig9-fleet-leader-crash"],
)
def test_no_relayer_rebroadcasts_a_packet_its_own_transaction_carries(
    monkeypatch, config
):
    report, broadcasts, rebroadcasts = _self_rebroadcasts(monkeypatch, config)
    assert report.window.completion.as_fractions()["completed"] == 1.0
    assert broadcasts["recv"] > 0 and broadcasts["ack"] > 0
    assert rebroadcasts == {}


# -- determinism: same seed, same bytes, for every policy --------------------


@pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
def test_fleet_runs_are_deterministic(policy):
    """Same seed twice => byte-identical report and journals at K=4."""
    def run():
        config = ExperimentConfig(
            input_rate=10,
            measurement_blocks=3,
            num_relayers=4,
            total_transfers=32,
            submission_blocks=1,
            seed=13,
            run_to_completion=True,
            clear_interval=2,
            relayer=FleetConfig(policy=policy),
        )
        report = run_experiment(config, capture_journal=True)
        return report.to_json(), report.journal

    first_json, first_journal = run()
    second_json, second_journal = run()
    assert first_json.encode() == second_json.encode()
    assert first_journal.encode() == second_journal.encode()


def test_leader_failover_is_deterministic():
    """The whole crash-probe-handoff-clear chain replays byte-for-byte."""
    first, _ = fleet_run("leader", crash=True, clear_interval=2, seed=5)
    second, _ = fleet_run("leader", crash=True, clear_interval=2, seed=5)
    assert first.to_json().encode() == second.to_json().encode()
    assert first.fleet[0].leader.handoff_count >= 1
