"""``python -m repro check paper`` — every paper claim, in one table.

Each row of :data:`PAPER_TARGETS` is one claim of the paper's evaluation
(a table, the shape of a figure, an ablation behind a claim): the
paper's value, the configs that reproduce it, an extractor that turns
their reports into named values, the predicate those values must
satisfy (a function of ``assert`` statements) and the row's declared
expectation.  A row ``holds`` when its predicate passes and
``deviates`` when an assert fails; it *fails* when that outcome differs
from its declared expectation, in either direction — a known deviation
that starts to hold is as much news as a claim that breaks.

Every config of the selected rows runs through
:func:`repro.parallel.run_points`; a config several rows share runs once.
Two rows stage their workload on a :class:`~repro.framework.Testbed`
directly (the §V crafted block, the clearing ablation): they have no
configs and their extractor drives the run.

The check renders one line per row into the generated block of
EXPERIMENTS.md, and the committed line is that row's pin: a measured
value that moves fails the check until it is re-rendered with
``python -m repro check paper --write-pins``.
"""

from __future__ import annotations

import gc
import json
import re
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

from repro import calibration as cal
from repro.analysis import relative_error
from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.cosmos.denom import DenomTrace
from repro.cosmos.tx import TxFactory
from repro.faults import FaultSchedule, NodeCrash
from repro.framework import (
    ExperimentConfig,
    ExperimentReport,
    FleetConfig,
    Testbed,
    WorkloadDriver,
)
from repro.framework.metrics import scan_window
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height
from repro.lint.scenarios import SCENARIOS, PinError, SelectionError
from repro.parallel import run_points
from repro.relayer.cli import WorkloadCli
from repro.sim.monitor import SummaryStats

#: The document holding the generated block (src-layout: this file is
#: ``<root>/src/repro/lint/paper.py``).
DEFAULT_PATH = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

BEGIN = "<!-- BEGIN paper-targets: `python -m repro check paper --write-pins` renders this block -->"
END = "<!-- END paper-targets -->"
HEADER = ("| row | paper | measured | outcome |", "|---|---|---|---|")

HOLDS, DEVIATES = "holds", "deviates"

#: Fig. 12/13 and the parallel-RPC ablation run the registry's ``fig12``
#: factory at its replay pin's seed, so the row measures the pinned run.
FIG12_SEED = 1
FIG12 = SCENARIOS["fig12"].build(FIG12_SEED)

Reports = dict  # config key -> ExperimentReport


@dataclass(frozen=True)
class PaperTarget:
    """One claim: what the paper reports and how the repo re-measures it."""

    name: str
    #: The paper's value(s), as the generated block shows them.
    paper: str
    #: Keyed configs; the extractor reads the reports under the same keys.
    configs: dict[Hashable, ExperimentConfig]
    #: Reports by config key -> the named values below.
    extract: Callable[[Reports], dict[str, Any]]
    #: ``predicate(**values)``: the claim's asserts.
    predicate: Callable[..., None]
    #: ``show(**values)``: the block's measured column.
    show: Callable[..., str]
    expect: str = HOLDS


@dataclass
class PaperResult:
    """One row's outcome against its expectation and its committed line."""

    target: PaperTarget
    outcome: str
    line: str
    #: The first failing assert (source line and message) of a deviation.
    failed: Optional[str] = None
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = f"paper[{self.target.name}]: {self.outcome}"
        if self.failed:
            header += f" — {self.failed}"
        if self.clean:
            return header
        return "\n".join(
            [header, f"  FAILED — {len(self.violations)} violation(s):"]
            + [f"    {v}" for v in self.violations]
        )


def _series(values: dict, fmt: str) -> str:
    return ", ".join(f"{key}: {fmt.format(value)}" for key, value in values.items())


# ---------------------------------------------------------------------------
# Table I, Figs. 6-7: chain-only inclusion, 15 consecutive blocks
# ---------------------------------------------------------------------------

CHAIN_RATES = [250, 1000, 3000, 6000, 9000]
CHAIN_SEEDS = [1, 2]
TABLE1_RATES = [3000, 10000, 11000, 14000]


def _chain_only(rate: float, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=rate,
        measurement_blocks=15,
        chain_only=True,
        seed=seed,
    )


_CHAIN_GRID = {
    (rate, seed): _chain_only(rate, seed)
    for rate in CHAIN_RATES
    for seed in CHAIN_SEEDS
}


def _table1_extract(reports: Reports) -> dict:
    rows = {}
    for rate in TABLE1_RATES:
        d = reports[rate].to_dict()["submission"]
        requested = max(1, d["requested"])
        accepted = d["accepted"]
        committed_chain = d["committed_chain"]
        confirmed = d["committed"]  # what the submitting client could confirm
        rows[rate] = {
            "requested": requested,
            "submitted_pct": 100.0 * accepted / requested,
            "committed_pct": 100.0 * min(committed_chain, accepted) / max(1, accepted),
            "confirmed_pct": 100.0 * confirmed / max(1, accepted),
        }
    return {"rows": rows}


def _table1(rows) -> None:
    rates = sorted(rows)
    submitted = {rate: rows[rate]["submitted_pct"] for rate in rates}
    # Below the collapse threshold nearly everything gets through...
    low_rates = [r for r in rates if r <= 9000]
    assert all(submitted[r] >= 95.0 for r in low_rates)
    # ...and the submission rate collapses monotonically past 10 000 RPS.
    high_rates = [r for r in rates if r >= 10000]
    assert len(high_rates) >= 2
    for a, b in zip(high_rates, high_rates[1:]):
        assert submitted[b] <= submitted[a] + 5.0
    assert submitted[high_rates[0]] < 90.0
    assert submitted[high_rates[-1]] < 20.0
    # At the top of the sweep the client can no longer confirm what it
    # submitted ('failed tx: no confirmation' — the visibility half of the
    # paper's committed-rate degradation; the on-chain commit ratio
    # itself stays high, Known deviation 2).
    assert rows[high_rates[-1]]["confirmed_pct"] < 90.0


def _fig6_extract(reports: Reports) -> dict:
    results = {}
    for rate in CHAIN_RATES:
        samples = [
            reports[rate, seed].window.chain_throughput_tfps
            for seed in CHAIN_SEEDS
        ]
        results[rate] = SummaryStats.from_values(samples)
    return {"results": results}


def _fig6(results) -> None:
    medians = {rate: dist.median for rate, dist in results.items()}
    rates = sorted(medians)
    low, high = rates[0], rates[-1]
    peak_rate = max(medians, key=medians.get)

    # Shape: throughput rises from the lowest rate, peaks in the interior,
    # and declines toward the highest rate.
    assert medians[peak_rate] > medians[low] * 2
    assert low < peak_rate < high, "peak must be in the interior of the sweep"
    assert medians[high] < medians[peak_rate] * 0.85

    # Scale: peak within 2x of the paper's 961 TFPS; low end near 200.
    assert 500 <= medians[peak_rate] <= 1900
    assert 120 <= medians[low] <= 350


def _fig7_extract(reports: Reports) -> dict:
    intervals = {}
    for rate in CHAIN_RATES:
        samples = []
        for seed in CHAIN_SEEDS:
            window = reports[rate, seed].window
            if window.block_intervals_a:
                samples.append(
                    sum(window.block_intervals_a) / len(window.block_intervals_a)
                )
        intervals[rate] = sum(samples) / len(samples)
    return {"intervals": intervals}


def _fig7(intervals) -> None:
    rates = sorted(intervals)
    low, high = rates[0], rates[-1]
    # The configured minimum holds at low rates...
    assert 5.0 <= intervals[low] <= 6.5
    # ...and the interval grows monotonically-ish with rate (paper's shape).
    assert intervals[high] > intervals[low] * 1.5
    assert all(
        intervals[b] >= intervals[a] * 0.9
        for a, b in zip(rates, rates[1:])
    ), "interval should not materially shrink as rate rises"


# ---------------------------------------------------------------------------
# Figs. 8-11 and §IV-A gas: relayed transfers over a 50-block window
# ---------------------------------------------------------------------------

RELAY_RATES = [20, 60, 100, 140, 160, 200, 300]
RELAY_SEEDS = [1, 2]
FIG9_RATES = [140, 160]
FIG11_RATES = [100, 140, 160]


def _relay(
    rate: float, seed: int = 1, relayers: int = 1, rtt: float = 0.2
) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=rate,
        measurement_blocks=50,
        num_relayers=relayers,
        network_rtt=rtt,
        seed=seed,
    )


def _fig8_extract(reports: Reports) -> dict:
    out = {}
    for rate in RELAY_RATES:
        samples = [
            reports[rate, seed].window.transfer_throughput_tfps
            for seed in RELAY_SEEDS
        ]
        out[rate] = SummaryStats.from_values(samples)
    # One 0 ms point near the peak for the latency comparison.
    zero_ms_peak = reports["0ms"].window.transfer_throughput_tfps
    return {"out": out, "zero_ms_peak": zero_ms_peak}


def _fig8(out, zero_ms_peak) -> None:
    medians = {rate: dist.median for rate, dist in out.items()}
    rates = sorted(medians)
    low, high = rates[0], rates[-1]
    peak_rate = max(medians, key=medians.get)

    # Near-linear at low rates: ~60-100 % of input completes in the window.
    assert 0.55 * low <= medians[low] <= 1.0 * low
    # Peak is interior (saturation sets in well before 300 RPS)...
    assert low < peak_rate < high
    assert 100 <= peak_rate <= 240, "peak should fall near the paper's 140 RPS"
    # ...with throughput in the paper's ballpark and declining afterwards.
    assert 55 <= medians[peak_rate] <= 120  # paper: 80-90
    assert medians[high] < medians[peak_rate] * 0.92
    # Lower network latency helps (0 ms above 200 ms at the peak).
    assert zero_ms_peak >= medians.get(140, medians[peak_rate]) * 0.95


def _fig9_extract(reports: Reports) -> dict:
    out = {}
    for rtt in (0.0, 0.2):
        for rate in FIG9_RATES:
            one, two = reports[rtt, rate, 1], reports[rtt, rate, 2]
            out[(rtt, rate)] = {
                "one": one.window.transfer_throughput_tfps,
                "two": two.window.transfer_throughput_tfps,
                "redundant": two.errors.get("packet_messages_redundant", 0),
            }
    return {"out": out}


def _fig9(out) -> None:
    for (rtt, rate), data in out.items():
        # Two relayers are strictly worse (paper: 14-33 % lower)...
        assert data["two"] < data["one"], (rtt, rate)
        drop = 1 - data["two"] / data["one"]
        assert 0.05 <= drop <= 0.60, (rtt, rate, drop)
        # ...because of redundant deliveries, which must be numerous.
        assert data["redundant"] >= 50, (rtt, rate)


def _show_fig9(out) -> str:
    return ", ".join(
        f"{rtt * 1000:.0f} ms @{rate}: {d['one']:.1f} → {d['two']:.1f} TFPS "
        f"(−{100 * (1 - d['two'] / d['one']):.0f} %, {d['redundant']} redundant)"
        for (rtt, rate), d in out.items()
    )


def _fig10_extract(reports: Reports) -> dict:
    return {"out": {rate: reports[rate].window.completion for rate in RELAY_RATES}}


def _fig10(out) -> None:
    rates = sorted(out)
    # Completed fraction decreases with rate at the top of the sweep.
    completed = {r: out[r].as_fractions()["completed"] for r in rates}
    assert completed[rates[0]] > completed[rates[-1]]
    # Tails exist at high rates: some transfers stay partial or initiated.
    top = out[rates[-1]]
    assert top.partially_completed + top.only_initiated > 0


def _fig10_committed(out) -> None:
    rates = sorted(out)
    low_rates = [r for r in rates if r <= 160]
    # The paper's committed claim: below 160 RPS essentially everything
    # reaches the source chain.
    for rate in low_rates:
        status = out[rate]
        assert status.committed >= 0.995 * status.requested, rate


def _show_committed(out) -> str:
    return "committed " + _series(
        {
            rate: f"{status.committed}/{status.requested}"
            for rate, status in out.items()
            if rate <= 160
        },
        "{}",
    )


_FIG11_GRID = {
    (rate, relayers): _relay(rate, 1, relayers)
    for rate in FIG11_RATES
    for relayers in (1, 2)
}


def _fig11_extract(reports: Reports) -> dict:
    out = {
        rate: {
            "one": reports[rate, 1].window.completion,
            "two": reports[rate, 2].window.completion,
        }
        for rate in FIG11_RATES
    }
    return {"out": out}


def _fig11(out) -> None:
    for rate, data in out.items():
        # Fewer transfers complete within the window than with one relayer.
        assert (
            data["two"].completed <= data["one"].completed
        ), rate
        # The shortfall shows up as incomplete transfers, not lost ones.
        incomplete = (
            data["two"].partially_completed + data["two"].only_initiated
        )
        assert incomplete >= data["one"].partially_completed + data["one"].only_initiated - 100, rate


def _fig11_committed(out) -> None:
    for rate, data in out.items():
        # Commits unaffected by the second relayer.
        assert data["two"].committed >= 0.995 * data["two"].requested, rate


GAS_PAPER = {"transfer": 3_669_161, "recv": 7_238_699, "ack": 3_107_462}


def _gas(gas) -> None:
    measured = {
        "transfer": gas.transfer_avg,
        "recv": gas.recv_avg,
        "ack": gas.ack_avg,
    }
    assert gas.transfer_samples >= 10
    assert gas.recv_samples >= 10
    assert gas.ack_samples >= 10
    for kind in ("transfer", "recv", "ack"):
        # Within 5 % of the paper's averages (recv/ack txs carry an extra
        # client-update message, hence the tolerance).
        assert relative_error(measured[kind], GAS_PAPER[kind]) <= 0.05, kind
    # Ordering: receives cost roughly twice the other two.
    assert measured["recv"] > 1.7 * measured["transfer"]
    assert measured["transfer"] > measured["ack"]


# ---------------------------------------------------------------------------
# Figs. 12-13 and the parallel-RPC ablation: 5 000 transfers to completion
# ---------------------------------------------------------------------------

FIG13_PAPER = {1: 455, 2: 286, 4: 219, 8: 143, 16: 138, 32: 240, 64: 441}


def _fig12_extract(reports: Reports) -> dict:
    report = reports["fig12"]
    timeline = report.timeline
    return {
        "report": report,
        "timeline": timeline,
        "transfer": timeline.phase_fraction("transfer"),
        "receive": timeline.phase_fraction("receive"),
        "ack": timeline.phase_fraction("acknowledge"),
    }


def _fig12(report, timeline, transfer, receive, ack) -> None:
    assert timeline is not None

    # Completion latency in the paper's order of magnitude (minutes).
    assert 200 <= report.completion_latency <= 700

    # Phase shape: receive dominates, transfer second, ack smallest.
    assert receive > transfer > ack
    assert 0.40 <= receive <= 0.70  # paper: 0.573
    assert 0.20 <= transfer <= 0.50  # paper: 0.276

    # The headline: data pulls consume roughly 69 % of processing time.
    assert 0.55 <= timeline.data_pull_fraction <= 0.85

    # Steps execute in order: each phase's pull finishes after its
    # broadcast started, and acks complete last.
    t = timeline.timelines
    assert t[4].finished_at <= t[9].finished_at <= t[13].finished_at
    assert t[1].started_at <= t[5].started_at <= t[10].started_at


def _fig12_steps(timeline, **_) -> None:
    # Every step processed all 5 000 transfers.
    for step in range(1, 14):
        assert timeline.timelines[step].total == 5000, step


def _show_fig12(report, timeline, transfer, receive, ack) -> str:
    return (
        f"{report.completion_latency:.1f} s; pulls "
        f"{100 * timeline.data_pull_fraction:.1f} %; phases "
        f"{100 * transfer:.0f}/{100 * receive:.0f}/{100 * ack:.0f} %"
    )


def _show_fig12_steps(timeline, **_) -> str:
    short = {
        step: timeline.timelines[step].total
        for step in range(1, 14)
        if timeline.timelines[step].total != 5000
    }
    return "steps short of 5 000: " + (_series(short, "{}") or "none")


def _fig13(latency) -> None:
    best = min(latency, key=latency.get)
    # The U-shape: the optimum is an interior strategy...
    assert 4 <= best <= 32, f"optimum at {best} blocks"
    # ...with a large reduction from the single-block strategy (paper: 70 %)...
    reduction = 1 - latency[best] / latency[1]
    assert reduction >= 0.45, f"only {reduction:.0%} reduction"
    # ...and the right arm rises again: 64 blocks is much slower than the
    # optimum and comparable to the 1-block strategy.
    assert latency[64] > latency[best] * 2
    assert latency[64] > 0.6 * latency[1]
    # Left arm decreases monotonically 1 -> 8.
    assert latency[1] > latency[2] > latency[4] > latency[8]


#: Fig. 12 with parallel server workers AND a relayer that exploits them
#: with concurrent data pulls (workers alone change nothing for a client
#: that queries one request at a time); the serial side is Fig. 12 itself.
PARALLEL_RPC = replace(
    FIG12,
    pull_concurrency=4,
    calibration=cal.DEFAULT_CALIBRATION.with_overrides(rpc_workers=4),
)


def _ablation_rpc(serial, parallel) -> None:
    # Parallel query processing removes a large share of the latency,
    # confirming the serial RPC as the dominant bottleneck.
    assert parallel.completion_latency < 0.65 * serial.completion_latency
    # And both runs completed every transfer.
    assert serial.window.acks == 5000
    assert parallel.window.acks == 5000


# ---------------------------------------------------------------------------
# §V and the clearing ablation: staged frame overflows on a live testbed
# ---------------------------------------------------------------------------

SEC5_TXS = 1000
SEC5_MSGS_PER_TX = 100
SEC5_TIMEOUT_BLOCKS = 30


def _sec5_extract(_reports: Reports) -> dict:
    """The paper's crafted block: 1 000 txs x 100 transfers injected into
    the mempool in one burst.  The block gas cap splits it: the giant
    first block (>16 MB of events) strands its packets, with
    ``clear_interval = 0`` nothing recovers them."""
    config = ExperimentConfig(
        input_rate=1,  # the workload driver is unused; txs are staged
        measurement_blocks=10_000,
        timeout_blocks=SEC5_TIMEOUT_BLOCKS,
        clear_interval=0,
        seed=9,
    )
    testbed = Testbed(config)
    env = testbed.env
    chain_a, chain_b = testbed.chain_a, testbed.chain_b

    # Stage 1 000 funded accounts up front.
    factories = []
    for i in range(SEC5_TXS):
        wallet = Wallet.named(f"ws-user-{i}")
        chain_a.app.genesis_account(
            wallet, {FEE_DENOM: 10**15, TRANSFER_DENOM: 10**9}
        )
        factories.append(TxFactory(wallet, chain_a.cal))

    def flow():
        path = yield from testbed.bootstrap()
        testbed.start_relayers()
        start_height = chain_a.engine.height
        # Inject the paper's crafted burst directly into the mempool.
        timeout_height = Height(0, chain_b.engine.height + SEC5_TIMEOUT_BLOCKS)
        for factory in factories:
            msgs = [
                MsgTransfer(
                    source_port="transfer",
                    source_channel=path.a.channel_id,
                    denom=TRANSFER_DENOM,
                    amount=1,
                    sender=factory.wallet.address,
                    receiver=testbed.receiver.address,
                    timeout_height=timeout_height,
                    signer=factory.wallet.address,
                )
                for _ in range(SEC5_MSGS_PER_TX)
            ]
            gas = int((50_000 + SEC5_MSGS_PER_TX * 36_692) * 1.3)
            tx = factory.build(msgs, gas_limit=gas)
            chain_a.mempool.add(tx, now=env.now, gossip_delay=0.05)
        # Run until 4x the timeout offset passed on the destination.
        target = chain_b.engine.height + 4 * SEC5_TIMEOUT_BLOCKS
        while chain_b.engine.height < target:
            yield env.timeout(5.0)

        counts, _blocks = scan_window(
            chain_a,
            ("send_packet", "acknowledge_packet", "timeout_packet"),
            [("transfer", path.a.channel_id)],
            after_height=start_height,
        )
        outcome = {
            "sends": counts["send_packet"],
            "acks": counts["acknowledge_packet"],
            "timeouts": counts["timeout_packet"],
            "ws_errors": testbed.relayers[0].log.count("failed_to_collect_events"),
            "giant_block_events": max(
                chain_a.indexer.events_at(h).get("send_packet", 0)
                for h in range(
                    start_height + 1, chain_a.block_store.latest_height + 1
                )
            ),
        }
        # The paper's follow-up: a transfer submitted after the failure is
        # committed but never delivered.
        late_cli = WorkloadCli(
            env,
            testbed.cli_node,
            testbed.user_wallets[0],
            testbed.cli_host,
            testbed.relayers[0].log,
            source_channel=path.a.channel_id,
            receiver=testbed.receiver.address,
        )
        submission = yield from late_cli.ft_transfer(
            count=1, amount=1, timeout_blocks=10_000
        )
        outcome["late_committed"] = yield from late_cli.wait_confirmation(submission)
        yield env.timeout(120.0)
        outcome["late_pending"] = len(
            chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id)
        )
        return outcome

    return {"outcome": env.run_until_complete(env.process(flow(), name="sec5"))}


def _sec5(outcome) -> None:
    sends = outcome["sends"]
    settled = outcome["acks"] + outcome["timeouts"]
    stuck = sends - settled
    stuck_pct = 100.0 * stuck / max(1, sends)

    # The staged burst produced a block whose events exceed the 16 MB frame.
    calibration = cal.DEFAULT_CALIBRATION
    assert (
        outcome["giant_block_events"] * calibration.event_bytes["send_packet"]
        > calibration.websocket_max_frame_bytes
    )
    assert outcome["ws_errors"] >= 1
    # Most packets are stuck: committed on the source, never completed,
    # never timed out (paper: 81.8 %).
    assert sends >= 95_000
    assert stuck_pct >= 60.0
    # A minority settled (the tail block that fit under the limit).
    assert settled < 0.4 * sends
    # Transfers submitted after the failure commit but are not delivered.
    assert outcome["late_committed"]
    assert outcome["late_pending"] >= stuck + 1


def _show_sec5(outcome) -> str:
    sends = outcome["sends"]
    return (
        f"{100 * outcome['acks'] / sends:.1f} % completed / "
        f"{100 * outcome['timeouts'] / sends:.1f} % timed out / "
        f"{100 * (sends - outcome['acks'] - outcome['timeouts']) / sends:.1f} % "
        f"stuck of {sends}; giant block {outcome['giant_block_events']} "
        f"events; late transfer committed: {outcome['late_committed']}, "
        f"{outcome['late_pending']} pending"
    )


#: A tiny frame limit makes a 3 000-transfer block overflow without
#: needing 45 000 transfers: 3 000 x 400 B = 1.2 MB of events > limit.
CLEAR_FRAME_LIMIT = 500_000


def _clear_run(clear_interval: int) -> dict:
    config = ExperimentConfig(
        total_transfers=3000,
        submission_blocks=1,
        measurement_blocks=10_000,
        timeout_blocks=200,
        clear_interval=clear_interval,
        seed=9,
        calibration=cal.DEFAULT_CALIBRATION.with_overrides(
            websocket_max_frame_bytes=CLEAR_FRAME_LIMIT
        ),
    )
    testbed = Testbed(config)
    env = testbed.env

    def flow():
        path = yield from testbed.bootstrap()
        testbed.start_relayers()
        driver = WorkloadDriver(testbed)
        driver.start()
        yield driver.finished
        yield env.timeout(600.0)  # generous settling time
        log = testbed.relayers[0].log
        return {
            "pending": len(
                testbed.chain_a.app.ibc.pending_commitments(
                    "transfer", path.a.channel_id
                )
            ),
            "ws_errors": log.count("failed_to_collect_events"),
            "cleared": log.count("packet_clear"),
        }

    return env.run_until_complete(env.process(flow(), name="clear-ablation"))


def _ablation_clear(without, with_clearing) -> None:
    # Both runs hit the frame failure...
    assert without["ws_errors"] >= 1
    assert with_clearing["ws_errors"] >= 1
    # ...but only the paper's clear_interval=0 configuration strands packets.
    assert without["pending"] == 3000
    assert with_clearing["pending"] == 0
    assert with_clearing["cleared"] >= 1


# ---------------------------------------------------------------------------
# Extensions: relayer scaling strategies, fleets, fault recovery
# ---------------------------------------------------------------------------


def _scaling(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(input_rate=200, measurement_blocks=40, seed=6, **kwargs)


def _scaling_extract(reports: Reports) -> dict:
    return {
        "tfps": {k: r.window.transfer_throughput_tfps for k, r in reports.items()},
        "redundant": {
            k: r.errors.get("packet_messages_redundant", 0)
            for k, r in reports.items()
        },
        "two_ch": reports["two_channels"],
    }


def _ext_scaling(tfps, redundant, two_ch) -> None:
    # The paper's finding: naive scaling hurts.
    assert tfps["uncoordinated"] < tfps["one"]
    assert redundant["uncoordinated"] > 50
    # Coordination repairs it and actually scales.
    assert tfps["coordinated"] > tfps["one"] * 1.3
    assert redundant["coordinated"] == 0
    # Per-relayer channels scale equally well...
    assert tfps["two_channels"] > tfps["one"] * 1.3
    assert redundant["two_channels"] == 0
    # ...but split the token supply into non-fungible denominations — the
    # paper's §IV-A caveat, pinned here via the denom-trace hashes.
    voucher_0 = DenomTrace.native("uatom").prepend("transfer", "channel-0")
    voucher_1 = DenomTrace.native("uatom").prepend("transfer", "channel-1")
    assert voucher_0.ibc_denom() != voucher_1.ibc_denom()
    # The two-channel deployment really delivered.
    assert two_ch.window.acks > 0


FLEET_POLICIES = ("none", "shard", "leader")
FLEET_SIZES = (1, 2, 4)


def _fleet(policy: str, count: int) -> ExperimentConfig:
    """600 transfers in one block, run to completion: big enough to
    saturate the relay path, so an uncoordinated fleet's redundant
    submissions genuinely delay completion (goodput is completion
    speed)."""
    return ExperimentConfig(
        input_rate=0.0,
        total_transfers=600,
        submission_blocks=1,
        measurement_blocks=6,
        num_relayers=count,
        run_to_completion=True,
        relayer=FleetConfig(policy=policy),
        seed=17,
    )


def _fleet_extract(reports: Reports) -> dict:
    grid = {policy: {} for policy in FLEET_POLICIES}
    for policy in FLEET_POLICIES:
        for count in FLEET_SIZES:
            report = reports[policy, count]
            (row,) = report.fleet
            grid[policy][count] = {
                "redundant_ratio": row.redundant_ratio,
                "redundant_errors": row.redundant_errors,
                "goodput_tfps": row.goodput_tfps,
                "completed": report.window.completion.as_fractions()["completed"],
            }
    crash_report = reports["leader_crash"]
    (crash_row,) = crash_report.fleet
    crash = {
        "completed": crash_report.window.completion.as_fractions()["completed"],
        "handoff_count": crash_row.leader.handoff_count,
        "recovery_seconds": crash_row.leader.recovery_seconds,
    }
    return {"grid": grid, "crash": crash}


def _fig9_fleet(grid, crash) -> None:
    # Fig. 9's finding: the uncoordinated pair does ~2x the work...
    assert 1.6 <= grid["none"][2]["redundant_ratio"] <= 2.4
    # ...and coordination removes the waste entirely.
    for policy in ("shard", "leader"):
        for count in FLEET_SIZES:
            cell = grid[policy][count]
            assert cell["redundant_errors"] == 0, (policy, count)
            assert cell["redundant_ratio"] == 1.0, (policy, count)
            assert cell["completed"] == 1.0, (policy, count)
    # Fig. 9's headline: naive scaling *lowers* goodput; sharding scales.
    assert grid["none"][2]["goodput_tfps"] < grid["none"][1]["goodput_tfps"]
    assert grid["none"][4]["goodput_tfps"] <= grid["none"][2]["goodput_tfps"]
    assert grid["shard"][2]["goodput_tfps"] > grid["none"][1]["goodput_tfps"]
    # The failover point: the fleet survives its leader's death.
    assert crash["completed"] == 1.0
    assert crash["handoff_count"] >= 1
    assert crash["recovery_seconds"] > 0


def _show_fleet(grid, crash) -> str:
    cells = "; ".join(
        f"{policy} "
        + "/".join(f"{grid[policy][k]['goodput_tfps']:.1f}" for k in FLEET_SIZES)
        + " TFPS, "
        + "/".join(f"{grid[policy][k]['redundant_ratio']:.2f}" for k in FLEET_SIZES)
        + "×"
        for policy in FLEET_POLICIES
    )
    return (
        f"K=1/2/4: {cells}; leader crash {100 * crash['completed']:.0f} % "
        f"completed, {crash['handoff_count']} handoff(s), recovery "
        f"{crash['recovery_seconds']:.1f} s"
    )


#: The relayer (hermes-0) and its full nodes live on machine-0; crash it
#: for 30 s starting 5 s into the measurement window, while the fixed
#: workload is still being submitted and most packets are unrelayed.
FAULT_CRASH = FaultSchedule((NodeCrash("machine-0", at=5.0, duration=30.0),))
FAULT_TRANSFERS = 600


def _fault(recovery: bool) -> ExperimentConfig:
    """With recovery: RPC retries, resubscribe-on-disconnect and periodic
    clearing.  Without: Hermes 1.0.0 defaults and ``clear_interval=0``."""
    common = dict(
        input_rate=0.0,
        total_transfers=FAULT_TRANSFERS,
        submission_blocks=3,
        measurement_blocks=12,
        faults=FAULT_CRASH,
        seed=3,
    )
    if recovery:
        return ExperimentConfig(
            relayer=FleetConfig(rpc_retry_attempts=6, resubscribe_on_disconnect=True),
            clear_interval=2,
            run_to_completion=True,
            **common,
        )
    return ExperimentConfig(
        relayer=FleetConfig(rpc_retry_attempts=0, resubscribe_on_disconnect=False),
        clear_interval=0,
        drain_seconds=120.0,
        **common,
    )


def _fault_recovery(enabled, disabled) -> None:
    assert enabled.window.completion.requested == FAULT_TRANSFERS

    # The crash really happened and severed the subscriptions.
    for report in (enabled, disabled):
        assert report.faults is not None
        assert [w.kind for w in report.faults.windows] == ["node_crash"]
        assert report.faults.ws_disconnects >= 1

    # Recovery: resubscribed, detected the gap, and completed the batch.
    assert enabled.faults.resubscribes >= 1
    assert enabled.faults.height_gaps >= 1
    done = enabled.window.completion.as_fractions()["completed"]
    assert done >= 0.95, f"only {done:.1%} completed with recovery enabled"

    # No recovery: the relayer never rejoins; the run stalls well short.
    stalled = disabled.window.completion.as_fractions()["completed"]
    assert stalled < 0.5, f"{stalled:.1%} completed without recovery"
    assert done > stalled


def _show_fault(report: ExperimentReport) -> str:
    faults = report.faults
    return (
        f"{100 * report.window.completion.as_fractions()['completed']:.0f} % "
        f"completed, {faults.rpc_retries} retries, {faults.resubscribes} "
        f"resubscribes, {faults.height_gaps} gaps"
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_FIG12_ROW = dict(configs={"fig12": FIG12}, extract=_fig12_extract)

PAPER_TARGETS: dict[str, PaperTarget] = {
    t.name: t
    for t in (
        PaperTarget(
            "table1",
            "submitted >99 % ≤9 000 RPS, 80.2 % @10 000, 38.6 % @11 000, "
            "8.5 % @14 000; committed/submitted 29.2 % @14 000",
            {rate: _chain_only(rate, 1) for rate in TABLE1_RATES},
            _table1_extract,
            _table1,
            lambda rows: "submitted "
            + _series({r: d["submitted_pct"] for r, d in rows.items()}, "{:.1f} %")
            + f"; @14000 committed/submitted {rows[14000]['committed_pct']:.1f} %, "
            f"client-confirmed {rows[14000]['confirmed_pct']:.1f} %",
        ),
        PaperTarget(
            "fig6",
            "median TFPS ~200 @250, 961 peak @3 000, 499 @9 000",
            _CHAIN_GRID,
            _fig6_extract,
            _fig6,
            lambda results: "median TFPS "
            + _series({r: d.median for r, d in results.items()}, "{:.0f}"),
        ),
        PaperTarget(
            "fig7",
            "≥5 s interval, growing with the input rate",
            _CHAIN_GRID,
            _fig7_extract,
            _fig7,
            lambda intervals: "mean interval " + _series(intervals, "{:.1f} s"),
        ),
        PaperTarget(
            "fig8",
            "TFPS 14 @20, peak ~80-90 @140, ~50 @300; 0 ms ~90 @140",
            {
                **{
                    (rate, seed): _relay(rate, seed)
                    for rate in RELAY_RATES
                    for seed in RELAY_SEEDS
                },
                "0ms": _relay(140, rtt=0.0),
            },
            _fig8_extract,
            _fig8,
            lambda out, zero_ms_peak: "median TFPS "
            + _series({r: d.median for r, d in out.items()}, "{:.1f}")
            + f"; 0 ms @140: {zero_ms_peak:.1f}",
        ),
        PaperTarget(
            "fig9",
            "two relayers 14-33 % below one (77 / 53 TFPS @160)",
            {
                (rtt, rate, relayers): _relay(rate, 1, relayers, rtt)
                for rtt in (0.0, 0.2)
                for rate in FIG9_RATES
                for relayers in (1, 2)
            },
            _fig9_extract,
            _fig9,
            _show_fig9,
        ),
        PaperTarget(
            "fig9-fleet",
            "two uncoordinated relayers do ~2× the work for less throughput",
            {
                **{
                    (policy, count): _fleet(policy, count)
                    for policy in FLEET_POLICIES
                    for count in FLEET_SIZES
                },
                # K=2 leader fleet whose leader host dies mid-relay.
                "leader_crash": replace(
                    _fleet("leader", 2),
                    clear_interval=2,
                    relayer=FleetConfig(policy="leader", rpc_retry_attempts=3),
                    faults=FaultSchedule(
                        (NodeCrash("machine-0", at=8.0, duration=30.0),)
                    ),
                ),
            },
            _fleet_extract,
            _fig9_fleet,
            _show_fleet,
        ),
        PaperTarget(
            "fig10",
            "completed share falls with the rate; partial/initiated tails",
            {rate: _relay(rate) for rate in RELAY_RATES},
            _fig10_extract,
            _fig10,
            lambda out: "completed "
            + _series(
                {r: 100 * s.as_fractions()["completed"] for r, s in out.items()},
                "{:.1f} %",
            ),
        ),
        PaperTarget(
            "fig10-committed",
            ">99.9 % committed up to 160 RPS",
            {rate: _relay(rate) for rate in RELAY_RATES},
            _fig10_extract,
            _fig10_committed,
            _show_committed,
            expect=DEVIATES,
        ),
        PaperTarget(
            "fig11",
            "two relayers complete fewer transfers; the rest stay incomplete",
            _FIG11_GRID,
            _fig11_extract,
            _fig11,
            lambda out: "completed 1R/2R "
            + ", ".join(
                f"{rate}: {d['one'].completed}/{d['two'].completed}"
                for rate, d in out.items()
            ),
        ),
        PaperTarget(
            "fig11-committed",
            "commits still reach the chain below 160 RPS with two relayers",
            _FIG11_GRID,
            _fig11_extract,
            _fig11_committed,
            lambda out: _show_committed({r: d["two"] for r, d in out.items()}),
            expect=DEVIATES,
        ),
        PaperTarget(
            "fig12",
            "455 s; pulls 69 %; phases 27.6/57.3/14.9 %",
            predicate=_fig12,
            show=_show_fig12,
            **_FIG12_ROW,
        ),
        PaperTarget(
            "fig12-steps",
            "every one of the 13 steps sees all 5 000 transfers",
            predicate=_fig12_steps,
            show=_show_fig12_steps,
            expect=DEVIATES,
            **_FIG12_ROW,
        ),
        PaperTarget(
            "fig13",
            "s by blocks " + _series(FIG13_PAPER, "{}"),
            {
                blocks: replace(FIG12, submission_blocks=blocks)
                for blocks in FIG13_PAPER
            },
            lambda reports: {
                "latency": {b: r.completion_latency for b, r in reports.items()}
            },
            _fig13,
            lambda latency: "s by blocks " + _series(latency, "{:.1f}"),
        ),
        PaperTarget(
            "gas",
            "gas per 100-msg tx: transfer 3 669 161, recv 7 238 699, "
            "ack 3 107 462",
            {"run": _relay(100)},
            lambda reports: {"gas": reports["run"].gas},
            _gas,
            lambda gas: f"transfer {gas.transfer_avg:.0f}, recv "
            f"{gas.recv_avg:.0f}, ack {gas.ack_avg:.0f}",
        ),
        PaperTarget(
            "sec5-websocket",
            "2.5 % completed / 15.7 % timed out / 81.8 % stuck; "
            "later transfers undelivered",
            {},
            _sec5_extract,
            _sec5,
            _show_sec5,
        ),
        PaperTarget(
            "ablation-parallel-rpc",
            "serial RPC is the main bottleneck (pulls 69 %)",
            {"serial": FIG12, "parallel": PARALLEL_RPC},
            lambda reports: dict(reports),
            _ablation_rpc,
            lambda serial, parallel: f"serial {serial.completion_latency:.1f} s "
            f"→ 4 workers {parallel.completion_latency:.1f} s",
        ),
        PaperTarget(
            "ablation-clear-interval",
            "§V strands packets with clear_interval = 0",
            {},
            lambda _reports: {
                "without": _clear_run(0),
                "with_clearing": _clear_run(10),
            },
            _ablation_clear,
            lambda without, with_clearing: f"stuck {without['pending']} "
            f"(interval 0) vs {with_clearing['pending']} (interval 10, "
            f"{with_clearing['cleared']} clear scans)",
        ),
        PaperTarget(
            "ext-scaling",
            "§IV-A: coordination or per-relayer channels should scale",
            {
                "one": _scaling(num_relayers=1),
                "uncoordinated": _scaling(num_relayers=2),
                "coordinated": _scaling(
                    num_relayers=2, relayer=FleetConfig(policy="shard")
                ),
                "two_channels": _scaling(
                    num_relayers=2, relayer=FleetConfig(policy="channel")
                ),
            },
            _scaling_extract,
            _ext_scaling,
            lambda tfps, redundant, two_ch: "TFPS "
            + _series(tfps, "{:.1f}")
            + "; redundant "
            + _series(redundant, "{}"),
        ),
        PaperTarget(
            "fault-recovery",
            "(extension) relayer survives a 30 s crash of its node",
            {"enabled": _fault(True), "disabled": _fault(False)},
            lambda reports: dict(reports),
            _fault_recovery,
            lambda enabled, disabled: f"with recovery {_show_fault(enabled)}; "
            f"without {_show_fault(disabled)}",
        ),
    )
}


# ---------------------------------------------------------------------------
# Evaluation, the generated block and the harness entry point
# ---------------------------------------------------------------------------


def select(names: Sequence[str] = ()) -> list[PaperTarget]:
    """The rows called ``names`` (all when empty), in table order."""
    for name in names:
        if name not in PAPER_TARGETS:
            raise SelectionError(
                f"unknown paper row {name!r} (known: {', '.join(PAPER_TARGETS)})"
            )
    return [t for name, t in PAPER_TARGETS.items() if not names or name in names]


def _wire(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True)


def row_reports(targets: Sequence[PaperTarget]) -> Iterator[Reports]:
    """Each target's reports by config key, in order.

    A config several rows share runs once, through :func:`run_points`,
    and its report is dropped after the last row that reads it: the
    whole table never holds more than a few rows' reports.
    """
    last_use = {
        _wire(config): index
        for index, target in enumerate(targets)
        for config in target.configs.values()
    }
    memo: dict[str, ExperimentReport] = {}
    for index, target in enumerate(targets):
        wires = {key: _wire(config) for key, config in target.configs.items()}
        missing = {
            wire: target.configs[key]
            for key, wire in wires.items()
            if wire not in memo
        }
        if missing:
            memo.update(zip(missing, run_points(list(missing.values())).reports()))
        yield {key: memo[wire] for key, wire in wires.items()}
        for wire in wires.values():
            if last_use[wire] == index:
                memo.pop(wire, None)


def render_line(target: PaperTarget, measured: str, outcome: str) -> str:
    return f"| `{target.name}` | {target.paper} | {measured} | {outcome} |"


def evaluate(target: PaperTarget, reports: Reports) -> PaperResult:
    """Run ``target``'s predicate on its reports; a failed assert is a
    deviation, and an outcome other than the declared one a violation."""
    values = target.extract(reports)
    failed = None
    try:
        target.predicate(**values)
        outcome = HOLDS
    except AssertionError as exc:
        outcome = DEVIATES
        failed = traceback.extract_tb(exc.__traceback__)[-1].line
        if str(exc):
            failed += f"  [{exc}]"
    result = PaperResult(
        target, outcome, render_line(target, target.show(**values), outcome), failed
    )
    if outcome != target.expect:
        result.violations.append(
            f"outcome {outcome}, declared {target.expect}: the claim "
            + ("now holds" if outcome == HOLDS else "no longer holds")
        )
    return result


_ROW_NAME = re.compile(r"^\| `([^`]+)` \|")


def read_block(path: Path) -> dict[str, str]:
    """The committed line of each row in ``path``'s generated block."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise PinError(f"{path}: cannot read: {exc}") from None
    if text.count(BEGIN) != 1 or text.count(END) != 1:
        raise PinError(f"{path}: expected one generated block ({BEGIN} ... {END})")
    body = text.split(BEGIN)[1].split(END)[0].strip().splitlines()
    lines = {}
    for line in body:
        if line in HEADER:
            continue
        match = _ROW_NAME.match(line)
        if match is None or match.group(1) not in PAPER_TARGETS:
            raise PinError(
                f"{path}: generated block line names no paper row: {line!r}"
            )
        lines[match.group(1)] = line
    return lines


def write_block(path: Path, lines: dict[str, str]) -> None:
    """Rewrite ``path``'s generated block: one line per row, table order."""
    text = path.read_text()
    head, rest = text.split(BEGIN)
    tail = rest.split(END)[1]
    body = [*HEADER, *(lines[n] for n in PAPER_TARGETS if n in lines)]
    path.write_text(head + BEGIN + "\n" + "\n".join(body) + "\n" + END + tail)


def run(
    names: Sequence[str] = (),
    *,
    path: Optional[str] = None,
    write: bool = False,
) -> list[PaperResult]:
    """Evaluate the selected rows against their expectations and their
    committed lines; with ``write`` re-render those lines instead."""
    if not __debug__:
        raise RuntimeError("the paper predicates are asserts: run without -O")
    targets = select(names)
    block_path = Path(path) if path is not None else DEFAULT_PATH
    committed = read_block(block_path)
    if not write:
        missing = [t.name for t in targets if t.name not in committed]
        if missing:
            raise PinError(
                f"{block_path}: no generated line for {', '.join(missing)}; "
                "render it with `python -m repro check paper --scenario "
                f"{' '.join(missing)} --write-pins`"
            )
    results = []
    for target, reports in zip(targets, row_reports(targets)):
        results.append(evaluate(target, reports))
        # A finished engine is cyclic garbage: free the row's runs before
        # the next row starts, or a full table peaks at twice the memory.
        gc.collect()
    for result in results:
        name = result.target.name
        if write:
            committed[name] = result.line
        elif result.line != committed[name]:
            result.violations.append(
                f"measured line moved:\n      committed {committed[name]}\n"
                f"      measured  {result.line}\n"
                "    re-render with `python -m repro check paper --scenario "
                f"{name} --write-pins` when the move is meant"
            )
    if write:
        write_block(block_path, committed)
    return results
