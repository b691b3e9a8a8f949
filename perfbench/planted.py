"""Run the benchmark with a fixed cost planted in one program function.

The self-check (``selfcheck.py``) uses this to prove the benchmark
measures: it adds a busy-wait of ``--cost`` seconds to every call of
one public function, from outside the program, and then runs
``run.py``'s ``main`` unchanged in the same process.

    python3 perfbench/planted.py --plant fabric --cost 0.0003 -- \\
        --workload chaos_mix --seed 0 --seconds 10 --trace 0

Plants, one public function per layer:

* ``core``      — ``Executor.run_algorithm`` (FlowCon Algorithm 1 pass)
* ``placement`` — ``Worker.has_headroom`` (the manager's placement scan)
* ``fabric``    — ``FabricPolicy.send`` (every fabric implementation)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def _targets(plant: str):
    if plant == "core":
        from repro.core.executor import Executor

        return [(Executor, "run_algorithm")]
    if plant == "placement":
        from repro.cluster.worker import Worker

        return [(Worker, "has_headroom")]
    from perfbench.spans import subclasses
    from repro.cluster.fabric import FabricPolicy

    return [(cls, "send") for cls in subclasses(FabricPolicy)
            if "send" in cls.__dict__]


PLANTS = ("core", "placement", "fabric")


def plant(name: str, cost: float) -> None:
    """Make every call of the plant's function burn *cost* CPU seconds."""
    clock = time.perf_counter

    for owner, attr in _targets(name):
        original = owner.__dict__[attr]

        def slowed(*args, _original=original, **kwargs):
            end = clock() + cost
            while clock() < end:
                pass
            return _original(*args, **kwargs)

        setattr(owner, attr, slowed)


def main(argv=None) -> int:
    from perfbench import run

    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--plant", required=True, choices=PLANTS)
    parser.add_argument("--cost", type=float, required=True)
    parser.add_argument("bench_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    plant(args.plant, args.cost)
    rest = args.bench_args[1:] if args.bench_args[:1] == ["--"] else args.bench_args
    return run.main(rest)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import boot

    boot.prepare()
    sys.exit(main())
