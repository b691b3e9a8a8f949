"""Reachability sweep: which ``src/repro`` functions no shipped route enters.

    python tools/reach_sweep.py [--root DIR]

Runs every route below in its own subprocess with a ``sitecustomize``
(written to a temporary directory put first on ``PYTHONPATH``) that
installs a ``sys.setprofile`` hook and, at exit, writes every
``src/repro`` code object that was entered.  Process-pool children end
through ``os._exit``, which skips ``atexit``, so the hook wraps
``os._exit`` to write first.  Nothing in ``src/`` changes.
Function-body lines are then counted with ``ast``: the body without its
docstring, each nested def counted on its own.  Prints the unreached
share and the unreached functions, largest first.

Routes: ``repro list``/``zoo``/``table 1``/``fig 12``/``compare``/
``sweep``/``validate``; every example but ``parallel_batch_study.py``
(it fans out over every core); one 3 s untraced perfbench run per
workload at seed 0; CI's execute-only bench step (its file list read
from ``.github/workflows/ci.yml``).  The bench step alone takes about
4 minutes under the hook on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HOOK = """\
import atexit, os, sys, threading
_src, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    with open(os.path.join(_out, "%d.txt" % os.getpid()), "a") as fh:
        for c in _seen:
            if c.co_filename.startswith(_src):
                fh.write("%s\\t%d\\t%s\\n" % (c.co_filename, c.co_firstlineno, c.co_name))
def _exit(code, _real=os._exit):
    _dump()
    _real(code)
atexit.register(_dump)
os._exit = _exit
sys.setprofile(_hook)
threading.setprofile(_hook)
"""
CLI = [["list"], ["zoo"], ["table", "1"], ["fig", "12"], ["compare"],
       ["sweep"], ["validate"]]
WORKLOADS = ["paper_flowcon", "fleet_day", "chaos_mix"]


def routes(root: Path) -> list[list[str]]:
    py = sys.executable
    out = [[py, "-m", "repro", *args] for args in CLI]
    out += [[py, str(f)] for f in sorted((root / "examples").glob("*.py"))
            if f.name != "parallel_batch_study.py"]
    out += [[py, "perfbench/run.py", "--workload", w, "--seed", "0",
             "--seconds", "3", "--trace", "0"] for w in WORKLOADS]
    ci = (root / ".github/workflows/ci.yml").read_text()
    files = sorted(set(l.split()[0] for l in ci.splitlines()
                       if l.strip().startswith("benchmarks/bench_")))
    if not files:
        # An empty list would run the whole test suite instead.
        raise SystemExit("error: no benchmarks/bench_* lines in ci.yml")
    out.append([py, "-m", "pytest", *files, "--benchmark-disable", "-q"])
    return out


def body_lines(node: ast.AST) -> set[int]:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            getattr(body[0], "value", None), ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    lines = {n for s in body for n in range(s.lineno, s.end_lineno + 1)}
    for s in body:
        for sub in ast.walk(s):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines -= set(range(first_line(sub), sub.end_lineno + 1))
    return lines


def first_line(node: ast.AST) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def functions(src: Path) -> dict[tuple[str, int, str], int]:
    """``(file, first line, name) -> body lines`` for every def under src."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (str(path), first_line(node), node.name)
                found[key] = len(body_lines(node))
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    root = args.root.resolve()
    src = root / "src" / "repro"
    with tempfile.TemporaryDirectory() as hook, \
            tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=str(src), REACH_OUT=out,
                   PYTHONPATH=f"{hook}{os.pathsep}{root / 'src'}")
        failed = 0
        for cmd in routes(root):
            done = subprocess.run(cmd, cwd=root, env=env, text=True,
                                  capture_output=True)
            print(f"exit {done.returncode}: {' '.join(cmd[1:])}", flush=True)
            if done.returncode:
                # The hook slows every call, so a wall-clock gate in the
                # bench step can fail here and pass without it.
                failed += 1
                tail = (done.stdout + done.stderr).splitlines()[-8:]
                print("\n".join("    " + line for line in tail), flush=True)
        seen = set()
        for f in Path(out).iterdir():
            for line in f.read_text().splitlines():
                name, first, func = line.split("\t")
                seen.add((name, int(first), func))
    funcs = functions(src)
    missed = sorted(((n, k) for k, n in funcs.items() if k not in seen),
                    reverse=True)
    total, dead = sum(funcs.values()), sum(n for n, _ in missed)
    for n, (name, first, func) in missed:
        print(f"{n:5d}  {Path(name).relative_to(root)}:{first} {func}")
    print(f"unreached: {dead} of {total} function-body lines "
          f"({100.0 * dead / total:.1f} %); {failed} route(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
