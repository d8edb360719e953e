"""The experiment runner: Setup → Benchmark → Analysis, end to end.

:func:`run_experiment` is the one public entrypoint — everything in the
repo (sweeps, benchmarks, the parallel executor, the CLI) runs
experiments through it.  The orchestration itself lives in the private
:class:`_ExperimentEngine`; tests that need testbed introspection may
instantiate the engine directly, but its surface is not part of the
public API.
"""

from __future__ import annotations

import gc
from typing import Any, Generator, Optional

from repro.faults import FaultInjector
from repro.framework.config import ExperimentConfig
from repro.framework.connectors import CrossChainEventConnector
from repro.framework.metrics import (
    collect_fault_metrics,
    collect_fleet_metrics,
    collect_frame_metrics,
    collect_gas_metrics,
    collect_population_metrics,
    collect_rpc_metrics,
    collect_trace_metrics,
    collect_window_metrics,
)
from repro.framework.processor import CrossChainEventProcessor
from repro.framework.report import ExperimentReport
from repro.framework.setup import Testbed
from repro.framework.workload import WorkloadDriver
from repro.relayer.logging import render_journal
from repro.sim.core import SHUTDOWN, Event

#: Polling cadence for orchestration waits (simulation seconds).
_POLL = 0.5


def _reset_run_caches() -> None:
    """Drop process-global memo caches before a run.

    Every process-global memo (acknowledgement codec, transfer payload
    codec, escrow addresses, keys and signatures) is keyed by content and
    bounded; none is keyed by packet.  A pool worker that executes many
    sweep points back to back would still carry entries (and their memory)
    from one experiment into the next, skewing allocation measurements, so
    this hook clears them all.  Runs stay deterministic either way — the
    caches only memoize pure functions — so clearing them is purely a
    memory-hygiene hook.
    """
    from repro.ibc import packet, transfer
    from repro.tendermint import crypto

    packet.reset_caches()
    transfer.reset_caches()
    crypto.reset_caches()


class _ExperimentEngine:
    """Runs one experiment configuration and produces a report."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.testbed = Testbed(config)
        self.driver: Optional[WorkloadDriver] = None
        self.injector: Optional[FaultInjector] = None
        self._window_start_time = 0.0
        self._window_end_time = 0.0
        self._window_start_height = 0
        self._completion_latency: Optional[float] = None

    @property
    def _anchor_chain(self):
        """The primary route's source chain: the measurement-window clock."""
        return self.testbed.chains[self.testbed.topology.routes[0][0]]

    # ------------------------------------------------------------------

    def run(self) -> ExperimentReport:
        env = self.testbed.env
        main = env.process(self._orchestrate(), name="runner")
        # The event loop only grows the heap and creates no reference cycles
        # (`repro check stall` gates that), so collector passes would
        # re-traverse it and free nothing (DESIGN.md, "Host memory model").
        # Paused for the loop, handed back as found before the report build.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # Step only until the orchestration finishes — the chains would
            # otherwise keep producing (idle) blocks to the time horizon.
            while not main.triggered:
                if env.peek() > self.config.max_sim_seconds:
                    raise TimeoutError(
                        f"experiment did not finish within "
                        f"{self.config.max_sim_seconds} simulated seconds"
                    )
                env.step()
        finally:
            if collecting:
                gc.enable()
        if not main.ok:
            raise main.value
        crashed = [
            (name, exc)
            for name, exc in env.crashed_processes
            if name != "runner"
        ]
        if crashed:
            name, exc = crashed[0]
            raise RuntimeError(
                f"{len(crashed)} simulation process(es) crashed; "
                f"first: {name}: {exc!r}"
            ) from exc
        return self._build_report()

    def shutdown(self, drain_steps: int = 10_000) -> None:
        """Teardown after :meth:`run`: interrupt every live process.

        Never called on the normal experiment path (which must keep its
        byte-identical event accounting); only the stallcheck sanitizer
        invokes it, then asserts the event heap and all registries drain.
        The drain loop runs shutdown wakeups scheduled *at the current
        instant* — anything that reschedules itself into the future is a
        teardown bug the sanitizer should see, so we do not chase it.
        """
        if self.driver is not None:
            self.driver.stop()
            self.driver.processes.interrupt_all(SHUTDOWN)
        if self.injector is not None:
            self.injector.processes.interrupt_all(SHUTDOWN)
        self.testbed.shutdown()
        env = self.testbed.env
        deadline = env.now
        steps = 0
        while env.peek() <= deadline and steps < drain_steps:
            env.step()
            steps += 1

    # ------------------------------------------------------------------

    def _orchestrate(self) -> Generator[Event, Any, None]:
        config = self.config
        testbed = self.testbed
        env = testbed.env

        # Setup phase: chains + relay path + relayers (none if chain-only).
        yield from testbed.bootstrap()
        testbed.start_relayers()

        # Align the workload start to a block boundary.
        yield from self._wait_blocks(1)

        self._window_start_time = env.now
        self._window_start_height = self._anchor_chain.engine.height
        self.driver = WorkloadDriver(testbed)
        self.driver.start()
        if config.faults:
            # Fault times are relative to the measurement-window start, so
            # they land inside the measured region whatever bootstrap took.
            self.injector = FaultInjector(
                env,
                testbed.network,
                list(testbed.chains),
                testbed.rng,
                config.faults,
            )
            self.injector.start()

        # Measurement window: `measurement_blocks` source-chain blocks.
        end_height = self._window_start_height + config.measurement_blocks
        while self._anchor_chain.engine.height < end_height:
            if config.total_transfers is not None and self.driver.finished.triggered:
                # Fixed-total workloads may finish submitting early; keep
                # waiting for the window unless we are in completion mode.
                if config.run_to_completion:
                    break
            yield env.timeout(_POLL)
        self.driver.stop()
        self._window_end_time = env.now

        if config.run_to_completion:
            yield from self._wait_for_settlement()
            self._window_end_time = env.now
        elif config.drain_seconds > 0:
            yield env.timeout(config.drain_seconds)

    def _wait_blocks(self, blocks: int) -> Generator[Event, Any, None]:
        env = self.testbed.env
        target = self._anchor_chain.engine.height + blocks
        while self._anchor_chain.engine.height < target:
            yield env.timeout(_POLL)

    def _has_pending_commitments(self) -> bool:
        """Any outstanding packet commitment on any channel end of any
        edge — forwarded hops pend on the hub's outgoing channels, so
        settlement must sweep the whole topology, not just edge 0."""
        chains = {chain.chain_id: chain for chain in self.testbed.chains}
        return any(
            chains[end.chain_id].app.ibc.has_pending_commitments(
                end.port_id, end.channel_id
            )
            for paths in self.testbed.edge_paths
            for path in paths
            for end in (path.a, path.b)
        )

    def _wait_for_settlement(self) -> Generator[Event, Any, None]:
        """Wait until every committed transfer is acked or timed out."""
        env = self.testbed.env
        assert self.driver is not None
        while True:
            if self.driver.finished.triggered:
                if not self._has_pending_commitments():
                    processor = self._processor()
                    latency = processor.completion_latency(
                        self._window_start_time,
                        target=max(1, self.driver.stats.requested_transfers),
                    )
                    # All settled even if some timed out rather than acked.
                    self._completion_latency = (
                        latency if latency is not None else env.now - self._window_start_time
                    )
                    return
            yield env.timeout(2.0)

    # ------------------------------------------------------------------

    def _processor(self) -> CrossChainEventProcessor:
        connector = CrossChainEventConnector()
        for relayer in self.testbed.relayers:
            connector.attach(relayer.log)
        if self.driver is not None:
            connector.attach(self.driver.log)
        return CrossChainEventProcessor(connector)

    def _build_report(self) -> ExperimentReport:
        assert self.driver is not None
        testbed = self.testbed
        stats = self.driver.finalize()
        route = testbed.topology.routes[0]
        source_chain = testbed.chains[route[0]]
        dest_chain = testbed.chains[route[-1]]
        hop_paths = testbed.route_hop_paths(0)
        source_channels = [
            (end.port_id, end.channel_id)
            for end in (
                testbed.path_end(path, source_chain.chain_id)
                for path in hop_paths[0]
            )
        ]
        dest_channels = [
            (end.port_id, end.channel_id)
            for end in (
                testbed.path_end(path, dest_chain.chain_id)
                for path in hop_paths[-1]
            )
        ]
        chains_by_id = {chain.chain_id: chain for chain in testbed.chains}
        channel_ends = [
            (chains_by_id[end.chain_id], end.port_id, end.channel_id)
            for paths in testbed.edge_paths
            for path in paths
            for end in (path.a, path.b)
        ]
        window = collect_window_metrics(
            source_chain=source_chain,
            dest_chain=dest_chain,
            start_time=self._window_start_time,
            end_time=self._window_end_time,
            start_height_a=self._window_start_height,
            # Window metrics describe the primary route, so the submission
            # counters must be route-local too (they coincide with the
            # global totals for single-route topologies).
            requested=self.driver.route_requested[0],
            accepted=self.driver.route_accepted[0],
            source_channels=source_channels,
            dest_channels=dest_channels,
            channel_ends=channel_ends,
        )
        stats.committed_chain = window.sends_total
        processor = self._processor()
        timeline = processor.transfer_timeline(self._window_start_time)
        completion_curve = processor.completion_curve(self._window_start_time)
        tracer = self.testbed.tracer
        trace = collect_trace_metrics(
            tracer, window_start=self._window_start_time
        )
        faults = None
        if self.injector is not None:
            windows = self.injector.windows
            first_offset = (
                windows[0].start - self._window_start_time if windows else None
            )
            faults = collect_fault_metrics(
                windows,
                list(self.testbed.chains),
                [relayer.log for relayer in self.testbed.relayers],
                completion_curve,
                first_fault_offset=first_offset,
            )
        fleet = collect_fleet_metrics(
            topology=testbed.topology,
            chains=list(testbed.chains),
            edge_paths=testbed.edge_paths,
            edge_relayers=testbed.edge_relayers,
            fleets=testbed.fleets,
            start_time=self._window_start_time,
            end_time=self.testbed.env.now,
        )
        population = (
            None
            if self.driver.engine is None
            else collect_population_metrics(self.driver.engine, source_chain)
        )
        return ExperimentReport(
            config=self.config,
            window=window,
            workload=stats,
            timeline=timeline,
            gas=collect_gas_metrics(list(self.testbed.chains)),
            rpc=collect_rpc_metrics(list(self.testbed.chains)),
            errors=processor.error_summary(),
            completion_curve=completion_curve,
            completion_latency=self._completion_latency,
            faults=faults,
            fleet=fleet,
            trace=trace,
            population=population,
            frames=collect_frame_metrics(list(testbed.chains)),
            sim_end_time=self.testbed.env.now,
            tracer=tracer if tracer.enabled else None,
        )


def run_experiment(
    config: ExperimentConfig, *, capture_journal: bool = False
) -> ExperimentReport:
    """Run one experiment end to end: configure, run, report.

    This is the single public entrypoint for executing an experiment.
    With ``capture_journal=True`` the report's :attr:`ExperimentReport.journal`
    carries the canonical journal text
    (:func:`repro.relayer.logging.render_journal` over every relayer log
    plus the workload driver's) — the byte-comparison artifact the
    determinism tests and the scheduler-race sanitizer diff.  The journal
    is host-side only; it never enters the report's JSON wire format.
    """
    _reset_run_caches()
    engine = _ExperimentEngine(config)
    report = engine.run()
    if capture_journal:
        logs = [relayer.log for relayer in engine.testbed.relayers]
        if engine.driver is not None:
            logs.append(engine.driver.log)
        report.journal = render_journal(logs)
    return report
