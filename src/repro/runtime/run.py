"""One run scope for the protocol drivers.

Every distributed protocol in :mod:`repro.core` is two rounds between sites
and a coordinator, run under the same plumbing: a disk-shard scratch
directory for the memory budget, a live-telemetry session, a root trace
span, and an execution backend with its retry policy and telemetry hooks.
:class:`RunConfig` holds the options that configure that plumbing and
:func:`protocol_run` sets it up once, so a driver reads as its algorithm.

Drivers take the options as keyword arguments and build the config with
``RunConfig(**run)``, so an unknown option raises :class:`TypeError`::

    partial_kmedian(points, k=3, t=30, backend="cluster:2", trace=True)
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.metrics.blocked import MemoryBudgetLike, resolve_memory_budget, shard_scratch
from repro.obs.live import TelemetryLike, resolve_telemetry, telemetry_scope
from repro.obs.trace import TraceLike, resolve_tracer, trace_run
from repro.runtime.backends import (
    BackendLike,
    ExecutionBackend,
    apply_retry_policy,
    apply_telemetry,
    backend_scope,
)


@dataclass(frozen=True)
class RunConfig:
    """How a protocol run executes — never what it computes.

    Every option leaves the result bit-identical for a fixed seed: same
    centers, same cost, same ledger word counts.

    Attributes
    ----------
    backend:
        Execution backend for the per-site phases: ``None``/``"serial"``
        (default), ``"thread"``, ``"process"``, ``"cluster"`` — one
        long-lived runner process per host, payloads shipped over real
        sockets, the ledger reporting wire bytes next to the semantic words
        — any of those with a worker count (``"thread:4"``,
        ``"cluster:3"``), or an
        :class:`~repro.runtime.backends.ExecutionBackend` instance (left
        open, so one warm pool can serve many runs).  On the cluster
        backend everything that lives at a site stays on its runner between
        rounds — the shard, the metric *and* the mutable round state; only
        digests and epoch tokens cross the wire (see
        :mod:`repro.runtime.state`).
    memory_budget:
        Byte cap (int or ``"64MB"``-style string) on any single distance or
        cost block a party materialises.  Matrices larger than the budget
        stream from disk shards in a per-run scratch directory, removed
        when the run completes.  ``None`` (default) keeps the dense path.
    prefetch:
        Double-buffered background tile prefetch for disk-backed cost
        matrices: ``None`` (default — auto: on exactly when a matrix
        streams from a memmap shard), ``True`` or ``False``.  Forwarded to
        the site solvers and the coordinator solve.
    async_rounds:
        Stream the round joins: the coordinator consumes each completed
        site (allocation marginals, ledger charges) while the remaining
        sites still compute.  Merge order stays the submission order.
    trace:
        ``True`` records the run end to end — spans for rounds, site tasks
        and wire round-trips, plus cache/prefetch/byte counters — on a
        :class:`~repro.obs.trace.Tracer` attached to the result as
        ``result.trace`` (coordinator and runner activity on one rebased
        timeline; render it with :func:`repro.obs.render_round_report` or
        export it with :func:`repro.obs.write_chrome_trace`).  An existing
        tracer may be passed to share one timeline across runs.  ``False`` (default) adds no
        per-task work.
    retry:
        A :class:`~repro.cluster.recovery.RetryPolicy` making the cluster
        backend fault tolerant: when a runner dies mid-round (crash or
        heartbeat timeout), its sites are re-pinned deterministically to
        surviving hosts and their dispatch logs replayed, so the run
        completes as if nothing happened — only the wire ledger shows the
        ``replay_*`` bytes and a recovery event.  ``None`` (default) keeps
        fail-fast behaviour: the first runner death raises
        :class:`~repro.cluster.recovery.DeadHostError`.  In-process
        backends have no hosts to lose and ignore the policy.
    telemetry:
        ``True`` or a :class:`~repro.obs.live.TelemetrySession` runs the
        live-telemetry plane next to the run: coordinator and runner
        resource sampling (runner samples ride heartbeat frames), mid-run
        Prometheus/JSONL metric snapshots, structured span-correlated logs
        and an optional run-history store (see :mod:`repro.obs.history`).
        Telemetry implies tracing — an untraced run gets a session-private
        tracer.  ``False`` (default) is the shared inert
        :data:`~repro.obs.live.NULL_TELEMETRY`.
    """

    backend: BackendLike = None
    memory_budget: MemoryBudgetLike = None
    prefetch: Optional[bool] = None
    async_rounds: bool = False
    trace: TraceLike = False
    retry: Optional["RetryPolicy"] = None
    telemetry: TelemetryLike = False


@dataclass
class RunScope:
    """What :func:`protocol_run` hands a driver for the length of one run."""

    #: The open execution backend for the site rounds.
    backend: ExecutionBackend
    #: The run's tracer (the shared null tracer when the run is untraced).
    tracer: Any
    #: Per-run disk-shard scratch directory (``None`` when unbudgeted).
    workdir: Optional[str]
    #: The memory budget resolved to bytes (``None`` means dense).
    memory_budget: Optional[int]
    prefetch: Optional[bool]
    async_rounds: bool
    _backend_exit: ExitStack

    @property
    def trace(self) -> Any:
        """The tracer to attach to networks and results, or ``None`` when untraced."""
        return self.tracer if self.tracer.enabled else None

    def solver_kwargs(self, extra: Optional[dict]) -> dict:
        """Site-solver keyword arguments: ``extra`` plus the run's budget and prefetch."""
        kwargs = dict(extra or {})
        if self.memory_budget is not None:
            kwargs.setdefault("memory_budget", self.memory_budget)
        if self.prefetch is not None:
            kwargs.setdefault("prefetch", self.prefetch)
        return kwargs

    @contextmanager
    def final_solve(self, timer) -> Iterator[None]:
        """The coordinator's final solve: timed, traced, and run with the backend closed.

        The site rounds are over, so the backend (and, on a cluster, its
        runner processes) is released before the coordinator solves.
        """
        self._backend_exit.close()
        with timer.measure("final_solve"), self.tracer.span("final_solve"):
            yield


@contextmanager
def protocol_run(config: RunConfig, *, algorithm: str, objective: str) -> Iterator[RunScope]:
    """Set up one protocol run under ``config`` and yield its :class:`RunScope`.

    Opens, in order, the memory budget's shard scratch directory, the
    telemetry session, the ``run`` root span (tagged with ``algorithm`` and
    ``objective``) and the execution backend with ``config.retry`` and the
    telemetry session installed.  Everything closes when the block exits;
    the backend closes earlier if the driver enters
    :meth:`RunScope.final_solve`.
    """
    memory_budget = resolve_memory_budget(config.memory_budget)
    tracer = resolve_tracer(config.trace)
    telemetry = resolve_telemetry(config.telemetry)
    if telemetry.enabled:
        # Telemetry implies tracing: gauges and samples live on a tracer.
        tracer = telemetry.adopt_tracer(tracer)
    with shard_scratch(memory_budget) as workdir, telemetry_scope(telemetry), trace_run(
        tracer, "run", algorithm=algorithm, objective=objective
    ), ExitStack() as backend_exit:
        backend = backend_exit.enter_context(backend_scope(config.backend))
        apply_retry_policy(backend, config.retry)
        apply_telemetry(backend, telemetry)
        yield RunScope(
            backend=backend,
            tracer=tracer,
            workdir=workdir,
            memory_budget=memory_budget,
            prefetch=config.prefetch,
            async_rounds=config.async_rounds,
            _backend_exit=backend_exit,
        )


__all__ = ["RunConfig", "RunScope", "protocol_run"]
