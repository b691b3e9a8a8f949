"""The policy-axis table: every registry name works on every surface.

:data:`~repro.cluster.axes.AXES` is the one place the six axes are
declared.  Each test here is driven by that table, so a name added to a
registry is checked on the CLI, by the :class:`Manager`, by
``run_cluster`` and by a batch :class:`RunTask` without a new test.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.baselines.na import NAPolicy
from repro.cli import build_parser
from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.worker import Worker
from repro.config import SimulationConfig
from repro.errors import UnknownPolicyError
from repro.experiments.batch import RunTask, run_tasks
from repro.experiments.runner import run_cluster
from repro.simcore.engine import Simulator
from repro.workloads.generator import WorkloadGenerator

#: Every (axis, registry name) pair in the table.
_NAMES = [
    (axis.name, name)
    for axis in AXES.values()
    for name in sorted(axis.registry)
]

#: One name per axis that no registry holds.
_UNKNOWN = {
    "placement": "zigzag",
    "rebalance": "gandiva",
    "admission": "lifo",
    "autoscale": "manual",
    "failures": "meteor-strike",
    "fabric": "carrier-pigeon",
}

_CFG = SimulationConfig(seed=0)


def _two_jobs():
    return WorkloadGenerator(np.random.default_rng(0)).random_mix(2)


def _manager(**axes) -> Manager:
    sim = Simulator(seed=0)

    def worker(name: str) -> Worker:
        return Worker(sim, name=name, capacity=1.0,
                      contention=ContentionModel.ideal())

    return Manager(sim, [worker("w0"), worker("w1")],
                   worker_factory=worker, **axes)


def test_table_covers_the_six_axes():
    assert list(AXES) == [
        "placement", "rebalance", "admission", "autoscale", "failures",
        "fabric",
    ]
    for axis in AXES.values():
        assert axis.default in axis.registry
        assert isinstance(resolve(axis, None), axis.registry[axis.default])


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_cli_flags_mirror_the_table(command):
    parser = build_parser()
    defaults = parser.parse_args([command])
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    choices = {
        action.dest: action.choices
        for action in commands.choices[command]._actions
    }
    for axis in AXES.values():
        assert getattr(defaults, axis.name) == axis.default
        expected = None if axis.parse else sorted(axis.registry)
        assert choices[axis.name] == expected


@pytest.mark.parametrize(
    "axis, name", _NAMES, ids=[f"{axis}-{name}" for axis, name in _NAMES]
)
def test_every_name_is_accepted_on_every_surface(axis, name):
    for command in ("compare", "sweep"):
        args = build_parser().parse_args([command, f"--{axis}", name])
        assert getattr(args, axis) == name
    policy = getattr(_manager(**{axis: name}), axis)
    assert type(policy) is AXES[axis].registry[name]

    specs = _two_jobs()
    result = run_cluster(specs, NAPolicy, _CFG, n_workers=2, **{axis: name})
    assert type(getattr(result.manager, axis)) is AXES[axis].registry[name]
    (record,) = run_tasks([
        RunTask(0, tuple(specs), NAPolicy, _CFG,
                cluster={"n_workers": 2, axis: name}),
    ])
    assert record.completion_times() == result.completion_times()


@pytest.mark.parametrize("axis, name", _UNKNOWN.items(), ids=list(_UNKNOWN))
def test_unknown_name_is_refused_everywhere(axis, name):
    if AXES[axis].parse is None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", f"--{axis}", name])
    with pytest.raises(UnknownPolicyError, match=name):
        resolve(AXES[axis], name)
    with pytest.raises(UnknownPolicyError, match=name):
        _manager(**{axis: name})
