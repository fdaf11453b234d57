"""The run-option contract: every protocol entry point takes exactly the
:class:`~repro.runtime.run.RunConfig` options, and nothing else."""

import dataclasses

import pytest

from repro import (
    partial_kcenter,
    partial_kmeans,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.core import (
    distributed_partial_center,
    distributed_partial_median,
    distributed_partial_median_no_shipping,
    distributed_uncertain_center_g,
    distributed_uncertain_clustering,
)
from repro.distributed import partition_balanced
from repro.distributed.instance import UncertainDistributedInstance
from repro.runtime import RunConfig

RUN_OPTIONS = {
    "backend", "memory_budget", "prefetch", "async_rounds", "trace", "retry", "telemetry",
}


def _uncertain_instance(workload, objective):
    shards = partition_balanced(workload.instance.n_nodes, 3, rng=7)
    return UncertainDistributedInstance.from_partition(workload.instance, shards, 3, 6, objective)


ENTRY_POINTS = {
    "distributed_partial_median": lambda f, **kw: distributed_partial_median(
        f["instance"], rng=1, **kw),
    "distributed_partial_median_no_shipping":
        lambda f, **kw: distributed_partial_median_no_shipping(f["instance"], rng=1, **kw),
    "distributed_partial_center": lambda f, **kw: distributed_partial_center(
        f["center_instance"], rng=1, **kw),
    "distributed_uncertain_clustering": lambda f, **kw: distributed_uncertain_clustering(
        _uncertain_instance(f["uncertain"], "median"), rng=1, **kw),
    "distributed_uncertain_center_g": lambda f, **kw: distributed_uncertain_center_g(
        _uncertain_instance(f["uncertain"], "center-g"), rng=1, **kw),
    "partial_kmedian": lambda f, **kw: partial_kmedian(f["points"], 3, 15, seed=1, **kw),
    "partial_kmeans": lambda f, **kw: partial_kmeans(f["points"], 3, 15, seed=1, **kw),
    "partial_kcenter": lambda f, **kw: partial_kcenter(f["points"], 3, 15, seed=1, **kw),
    "uncertain_partial_kmedian": lambda f, **kw: uncertain_partial_kmedian(
        f["uncertain"].instance, 3, 6, seed=1, **kw),
    "uncertain_partial_kcenter_g": lambda f, **kw: uncertain_partial_kcenter_g(
        f["uncertain"].instance, 3, 6, seed=1, **kw),
}


@pytest.fixture(scope="module")
def inputs(small_workload, small_instance, small_center_instance, small_uncertain_workload):
    return {
        "points": small_workload.points,
        "instance": small_instance,
        "center_instance": small_center_instance,
        "uncertain": small_uncertain_workload,
    }


def test_run_config_holds_the_seven_options():
    assert {f.name for f in dataclasses.fields(RunConfig)} == RUN_OPTIONS
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().trace = True


@pytest.mark.parametrize("option", ["transport", "no_such_option"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_run_option_raises_type_error(inputs, entry, option):
    with pytest.raises(TypeError, match=option):
        ENTRY_POINTS[entry](inputs, **{option: "pickle"})
