"""The benchmark's workloads: inputs, jobs, references and correctness checks.

Every workload is a closed loop over a fixed job list: ``N_INPUTS``
distinct inputs drawn from the workload seed, cycled in order.  Per-input
facts that do not depend on timing (words, realized cost against a
centralized reference, outlier recall) are computed once per input outside
the timed region, so they repeat exactly for a given seed however many
jobs fit in the window.

The program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import partial_kcenter, partial_kmedian, uncertain_partial_kmedian
from repro.analysis.evaluation import evaluate_centers, outlier_recovery
from repro.baselines.central import centralized_reference
from repro.cluster import ClusterBackend, ClusterService
from repro.cluster.framing import encode_frame
from repro.data import gaussian_mixture_with_outliers, uncertain_nodes_from_mixture
from repro.metrics.euclidean import EuclideanMetric
from repro.sequential.assignment import assign_with_outliers

#: Distinct inputs per run.  More inputs make a run's averages depend less
#: on which seed drew them; each one costs a reference solve outside the
#: timed region.
N_INPUTS = 16
N_SITES = 4
N_HOSTS = 2
JOB_TIMEOUT_S = 120.0


@dataclass
class Job:
    """One distinct input of a workload's job list."""

    index: int
    data: Any                 # (n, d) points, or an UncertainInstance
    planted: np.ndarray       # indices of the planted outliers (points or nodes)
    seed: int                 # the protocol's seed for this input


@dataclass
class Reference:
    """What every job on one input must reproduce, and its per-input metrics."""

    fingerprint: tuple
    failures: List[str]
    words: float
    cost_ratio: float
    recall: float
    message_bytes: int


def fingerprint(result) -> tuple:
    """The outputs two runs of one input must agree on bit for bit."""
    outliers = b"" if result.outliers is None else result.outliers.tobytes()
    return (result.centers.tobytes(), float(result.cost), outliers,
            result.ledger.total_words(), int(result.rounds))


def _trimmed(costs: np.ndarray, budget: float, objective: str) -> float:
    """Objective over ``costs`` after dropping the ``budget`` largest."""
    kept = np.sort(costs)[: costs.size - int(round(budget))]
    return float(kept.max() if objective == "center" else kept.sum())


def _nearest_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[centers][None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).min(axis=1)


class Workload:
    """A job list, the pool it runs on and how its outputs are judged."""

    name = ""
    objective = "median"
    clients = 1
    k = 0
    t = 0

    def make_jobs(self, seed: int) -> List[Job]:
        seeds = np.random.SeedSequence(seed).spawn(N_INPUTS)
        return [self._make_job(i, np.random.default_rng(s)) for i, s in enumerate(seeds)]

    def _make_job(self, index: int, rng: np.random.Generator) -> Job:
        raise NotImplementedError

    def solve(self, job: Job, backend: Any, trace: bool):
        raise NotImplementedError

    def open_pool(self) -> Optional[Any]:
        return None

    def run(self, pool: Any, job: Job, trace: bool) -> Tuple[Any, float, int]:
        """Run one job; return ``(result, time the job began, jobs running)``."""
        started = time.perf_counter()
        return self.solve(job, pool or "serial", trace), started, 1

    def bytes_per_job(self, job_bytes: List[int], refs: List[Reference]) -> float:
        """Mean encoded wire bytes of the timed jobs that passed."""
        return float(np.mean(job_bytes))

    # -- references, computed once per input outside the timed region -----

    def realized_costs(self, job: Job, result) -> Tuple[float, float]:
        """(cost reported by the library's evaluation, cost recomputed here)."""
        raise NotImplementedError

    def reference_cost(self, job: Job) -> float:
        raise NotImplementedError

    def reference(self, job: Job) -> Reference:
        """Solve ``job`` on the serial backend and check the answer."""
        result = self.solve(job, "serial", False)
        failures = []
        if result.rounds != 2:
            failures.append(f"{result.rounds} rounds")
        if result.centers.size > self.k:
            failures.append(f"{result.centers.size} centers > k={self.k}")
        n_out = -1 if result.outliers is None else result.outliers.size
        if not 0 <= n_out <= result.outlier_budget:
            failures.append(f"{n_out} outliers, budget {result.outlier_budget}")
        reported, recomputed = self.realized_costs(job, result)
        if not np.isclose(reported, recomputed, rtol=1e-9, atol=0.0):
            failures.append(f"cost {reported!r} != recomputed {recomputed!r}")
        return Reference(
            fingerprint=fingerprint(result),
            failures=[f"{self.name} input {job.index}: {f}" for f in failures],
            words=result.ledger.total_words(),
            cost_ratio=reported / self.reference_cost(job),
            recall=outlier_recovery(result.outliers, job.planted)["recall"],
            message_bytes=sum(encode_frame(m.payload).n_bytes
                              for m in result.ledger.messages),
        )


class _PointsWorkload(Workload):
    """Gaussian mixtures with planted outliers, judged on the full point set."""

    n_points = 0
    n_clusters = 0

    def _make_job(self, index: int, rng: np.random.Generator) -> Job:
        data = gaussian_mixture_with_outliers(
            n_inliers=self.n_points - self.t, n_outliers=self.t,
            n_clusters=self.n_clusters, dim=2, separation=12.0, rng=rng,
        )
        return Job(index, data.points, np.flatnonzero(data.outlier_mask),
                   int(rng.integers(2**31)))

    def realized_costs(self, job: Job, result) -> Tuple[float, float]:
        reported = evaluate_centers(
            EuclideanMetric(job.data), result.centers, result.outlier_budget,
            objective=self.objective,
        ).cost
        recomputed = _trimmed(_nearest_distances(job.data, result.centers),
                              result.outlier_budget, self.objective)
        return reported, recomputed

    def reference_cost(self, job: Job) -> float:
        return centralized_reference(
            EuclideanMetric(job.data), self.k, self.t,
            objective=self.objective, rng=job.seed,
        ).cost


class MedianSerial(_PointsWorkload):
    """Local search with nothing in the way: no wire, no spawn."""

    name = "median_serial"
    objective = "median"
    n_points, n_clusters, k, t = 400, 2, 2, 4

    def solve(self, job: Job, backend: Any, trace: bool):
        return partial_kmedian(job.data, self.k, self.t, n_sites=N_SITES,
                               seed=job.seed, backend=backend, trace=trace)

    def bytes_per_job(self, job_bytes: List[int], refs: List[Reference]) -> float:
        # No wire on the serial backend: price the protocol's messages as
        # the frame bodies they would travel in, once per input.
        return float(np.mean([r.message_bytes for r in refs]))


class CenterCluster(_PointsWorkload):
    """k-center on a warm 2-host pool: dispatch, frames and the loop dominate."""

    name = "center_cluster"
    objective = "center"
    n_points, n_clusters, k, t = 1260, 5, 5, 60

    def open_pool(self) -> ClusterBackend:
        return ClusterBackend(n_hosts=N_HOSTS)

    def solve(self, job: Job, backend: Any, trace: bool):
        return partial_kcenter(job.data, self.k, self.t, n_sites=N_SITES,
                               seed=job.seed, backend=backend, trace=trace)


class UncertainService(Workload):
    """Weighted local search on remote runners, two jobs in flight."""

    name = "uncertain_service"
    objective = "median"
    clients = 2
    n_nodes, n_clusters, k, t = 160, 3, 3, 8
    ground_size = 300

    def _make_job(self, index: int, rng: np.random.Generator) -> Job:
        data = uncertain_nodes_from_mixture(
            self.n_nodes - self.t, self.t, self.n_clusters,
            ground_size=self.ground_size, rng=rng,
        )
        return Job(index, data.instance, np.flatnonzero(data.node_labels < 0),
                   int(rng.integers(2**31)))

    def open_pool(self) -> ClusterService:
        return ClusterService(n_hosts=N_HOSTS)

    def solve(self, job: Job, backend: Any, trace: bool):
        return uncertain_partial_kmedian(job.data, self.k, self.t, n_sites=N_SITES,
                                         seed=job.seed, backend=backend, trace=trace)

    def run(self, pool: ClusterService, job: Job, trace: bool):
        def admitted(backend):
            started, lanes = time.perf_counter(), pool.active_jobs
            return self.solve(job, backend, trace), started, lanes

        return pool.submit(admitted, label=f"input-{job.index}").result(JOB_TIMEOUT_S)

    def _expected_costs(self, job: Job, centers: np.ndarray) -> np.ndarray:
        """Node-by-center expected distances, from coordinates."""
        points = job.data.ground_metric.points
        rows = []
        for node in job.data.nodes:
            diff = points[node.support][:, None, :] - points[centers][None, :, :]
            rows.append(node.probabilities @ np.sqrt((diff * diff).sum(axis=2)))
        return np.asarray(rows)

    def realized_costs(self, job: Job, result) -> Tuple[float, float]:
        nodes = np.arange(job.data.n_nodes)
        # evaluate_centers takes one metric over demands and centers; uncertain
        # nodes are distributions over it, so apply its trimming to the
        # library's expected-cost matrix instead.
        reported = assign_with_outliers(
            job.data.expected_cost_matrix(nodes, result.centers),
            np.arange(result.centers.size), result.outlier_budget,
        ).cost
        recomputed = _trimmed(self._expected_costs(job, result.centers).min(axis=1),
                              result.outlier_budget, self.objective)
        return reported, recomputed

    def reference_cost(self, job: Job) -> float:
        graph = job.data.compressed_graph("median")
        solution = centralized_reference(graph.as_metric(), self.k, self.t, rng=job.seed)
        anchors = graph.anchor_indices[solution.centers]
        return _trimmed(self._expected_costs(job, anchors).min(axis=1), self.t, "median")


WORKLOADS = {w.name: w for w in (MedianSerial(), CenterCluster(), UncertainService())}
