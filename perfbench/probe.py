"""Set-up probe: start a fresh process and stop it at the first event.

Prints the process's CPU time (``time.process_time``, which counts from
the start of the process) taken just before the first simulated event
of the workload's first simulation fires: the set-up a user pays for in
CPU seconds, covering interpreter start, imports, input generation, the
first config and policy construction, and the simulator assembly.

    python3 perfbench/probe.py --workload paper_flowcon --seed 0
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


class _FirstEvent(Exception):
    """Raised from the first ``Simulator.step`` to end the run there."""


def _stop_at_first_event(_sim):
    raise _FirstEvent(time.process_time())


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS
    from repro.simcore.engine import Simulator

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    Simulator.step = _stop_at_first_event
    try:
        workload.run_op(ops[0])
    except _FirstEvent as stop:
        print(repr(stop.args[0]))
        return 0
    print("perfbench: the simulation ran no event", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import boot

    boot.prepare()
    sys.exit(main())
