"""Every paper claim, one experiment per case.

Each case runs one experiment of ``repro.experiments.claims.EXPERIMENTS``
once, prints it next to the paper's reported shape, and asserts that
every ``CLAIMS`` row reading that experiment passed.  ``pytest
benchmarks/bench_claims.py -s`` prints the full side-by-side
reproduction report.
"""

import pytest
from _render import (
    print_fig1,
    print_growth_compare,
    print_scale,
    print_sweep,
    print_table1,
    print_table2,
    print_traces,
    run_once,
)

from repro.experiments.claims import CLAIMS, EXPERIMENTS
from repro.experiments.report import render_header


def _print_fig15_16(title, data, paper_note):
    flowcon, na = data
    print_traces(f"{title} — Figure 15: FlowCon (alpha=10%, itval=20)",
                 flowcon, paper_note)
    print_traces(f"{title} — Figure 16: NA", na, paper_note)


#: experiment key → (printer, title); the other experiments print only
#: their rows' details.
_PRINTERS = {
    "fig1": (print_fig1, "Figure 1: training progress of five models (solo)"),
    "fig3": (print_sweep,
             "Figure 3: completion time, alpha=5%, interval sweep"),
    "fig4": (print_sweep,
             "Figure 4: completion time, alpha=10%, interval sweep"),
    "fig5": (print_sweep, "Figure 5: completion time, itval=20s, alpha sweep"),
    "fig6": (print_sweep, "Figure 6: completion time, itval=30s, alpha sweep"),
    "fig7": (print_traces,
             "Figure 7: CPU usage, FlowCon (alpha=5%, itval=20), 3 jobs"),
    "fig8": (print_traces, "Figure 8: CPU usage, NA, 3 jobs"),
    "fig9": (print_scale,
             "Figure 9: five jobs, random submission, four FlowCon configs"),
    "fig10": (print_traces,
              "Figure 10: CPU usage, FlowCon (alpha=3%, itval=30), 5 jobs"),
    "fig11": (print_traces, "Figure 11: CPU usage, NA, 5 jobs"),
    "fig12": (print_scale,
              "Figure 12: ten jobs, random submission, FlowCon-10%-20 vs NA"),
    "fig13": (print_growth_compare,
              "Figure 13: growth efficiency of the worst-delta job"),
    "fig14": (print_growth_compare,
              "Figure 14: growth efficiency of the best-delta job"),
    "fig15_16": (_print_fig15_16, "CPU usage, 10 jobs"),
    "fig17": (print_scale,
              "Figure 17: fifteen jobs, random submission, "
              "FlowCon-10%-40 vs NA"),
    "table1": (print_table1, "Table 1: tested deep learning models"),
    "table2": (print_table2,
               "Table 2: completion-time reduction of MNIST (Tensorflow)"),
}


@pytest.mark.parametrize("key", list(EXPERIMENTS))
def test_claims(benchmark, key):
    data = run_once(benchmark, EXPERIMENTS[key])
    rows = {name: c for name, c in CLAIMS.items() if c.experiment == key}
    if key in _PRINTERS:
        printer, title = _PRINTERS[key]
        paper = "; ".join(dict.fromkeys(c.paper for c in rows.values()))
        printer(title, data, paper)
    else:
        print("\n" + render_header(key.replace("_", " ")))
    failed = []
    for name, claim in rows.items():
        passed, detail = claim.check(data)
        print(f"{'PASS' if passed else 'FAIL'}  {claim.figure}  "
              f"{claim.label}: {detail}")
        if not passed:
            failed.append(name)
    assert rows, f"no CLAIMS row reads experiment {key!r}"
    assert not failed
