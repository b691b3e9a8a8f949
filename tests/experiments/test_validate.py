"""Tests for the paper-claims table and the reproduction scorecard."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from collections import Counter

import pytest

from repro.cli import main
from repro.experiments import claims as claims_module
from repro.experiments import validate as validate_module
from repro.experiments.claims import CLAIMS, EXPERIMENTS
from repro.experiments.validate import Check, validate_reproduction

#: Every figure and table of the paper's evaluation (Fig. 2 is the
#: architecture diagram and states no measurable claim).
PAPER_EXHIBITS = [
    "Fig.1", *(f"Fig.{n}" for n in range(3, 18)), "Tab.1", "Tab.2",
]


@pytest.fixture(scope="module")
def scorecard():
    """The one full scorecard run: its checks, each experiment's data and
    how often each experiment ran."""
    data, calls = {}, Counter()

    def recording(key, fn):
        def run():
            calls[key] += 1
            data[key] = fn()
            return data[key]
        return run

    with pytest.MonkeyPatch.context() as mp:
        for key, fn in list(EXPERIMENTS.items()):
            mp.setitem(EXPERIMENTS, key, recording(key, fn))
        checks = validate_reproduction()
    return checks, data, calls


@pytest.fixture
def replayed(monkeypatch, scorecard):
    """EXPERIMENTS replay the full run's data instead of re-running."""
    _, data, _ = scorecard
    for key in EXPERIMENTS:
        monkeypatch.setitem(EXPERIMENTS, key, lambda d=data[key]: d)


def _boom(*_args):
    raise RuntimeError("boom")


class TestClaimsTable:
    def test_row_names_unique(self):
        # A repeated key in the CLAIMS literal silently drops a row.
        tree = ast.parse(inspect.getsource(claims_module))
        (table,) = [
            node.value for node in tree.body
            if isinstance(node, ast.AnnAssign)
            and getattr(node.target, "id", None) == "CLAIMS"
        ]
        names = [key.value for key in table.keys]
        assert len(names) == len(set(names)) == len(CLAIMS)

    def test_rows_are_complete(self):
        for name, claim in CLAIMS.items():
            assert claim.figure and claim.paper and claim.label, name
            assert claim.experiment in EXPERIMENTS, name

    def test_every_experiment_has_a_row(self):
        read = {claim.experiment for claim in CLAIMS.values()}
        assert read == set(EXPERIMENTS)

    def test_covers_every_paper_exhibit(self):
        figures = {claim.figure for claim in CLAIMS.values()}
        missing = [f for f in PAPER_EXHIBITS if f not in figures]
        assert not missing


class TestValidateReproduction:
    def test_one_check_per_row(self, scorecard):
        checks, _, _ = scorecard
        assert [c.name for c in checks] == list(CLAIMS)

    @pytest.mark.parametrize("name", list(CLAIMS))
    def test_row_passes(self, scorecard, name):
        checks, _, _ = scorecard
        (c,) = [c for c in checks if c.name == name]
        assert c.passed, f"{c.claim.figure}: {c.claim.label} — {c.detail}"

    def test_details_are_informative(self, scorecard):
        checks, _, _ = scorecard
        assert all(c.detail for c in checks)

    def test_each_experiment_runs_once(self, scorecard):
        _, _, calls = scorecard
        assert calls == {key: 1 for key in EXPERIMENTS}

    def test_check_is_frozen(self):
        check = Check("x", CLAIMS["fig1.concave"], True, "z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.passed = False  # type: ignore[misc]

    def test_raising_experiment_fails_only_its_rows(
        self, replayed, monkeypatch, capsys
    ):
        monkeypatch.setitem(EXPERIMENTS, "fig12", _boom)
        checks = validate_reproduction()
        assert [c.name for c in checks] == list(CLAIMS)
        hit = [c for c in checks if c.claim.experiment == "fig12"]
        assert hit
        for c in hit:
            assert not c.passed
            assert "raised RuntimeError" in c.detail
        assert all(c.passed for c in checks if c not in hit)

        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert out.count("raised RuntimeError") == len(hit)
        assert f"{len(checks) - len(hit)}/{len(checks)} checks passed" in out

    def test_raising_check_fails_its_row(self, replayed, monkeypatch):
        row = CLAIMS["fig1.concave"]
        monkeypatch.setitem(
            CLAIMS, "fig1.concave", dataclasses.replace(row, check=_boom)
        )
        checks = {c.name: c for c in validate_reproduction()}
        assert not checks["fig1.concave"].passed
        assert "raised RuntimeError" in checks["fig1.concave"].detail
        assert checks["fig1.vae_riser"].passed


class TestCliValidate:
    def _run(self, monkeypatch, capsys, checks):
        monkeypatch.setattr(
            validate_module, "validate_reproduction", lambda: checks
        )
        code = main(["validate"])
        return code, capsys.readouterr().out

    def test_prints_every_row_and_exits_zero(
        self, scorecard, monkeypatch, capsys
    ):
        checks, _, _ = scorecard
        code, out = self._run(monkeypatch, capsys, checks)
        assert code == 0
        rows = [line for line in out.splitlines() if " PASS " in line]
        assert len(rows) == len(checks)
        assert f"{len(checks)}/{len(checks)} checks passed" in out

    def test_one_failing_row_exits_one(self, scorecard, monkeypatch, capsys):
        checks, _, _ = scorecard
        failing = [
            dataclasses.replace(checks[0], passed=False), *checks[1:]
        ]
        code, out = self._run(monkeypatch, capsys, failing)
        assert code == 1
        assert sum(" FAIL " in line for line in out.splitlines()) == 1
