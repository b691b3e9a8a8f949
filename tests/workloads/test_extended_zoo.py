"""Unit tests for the extended (§6-motivated) zoo models."""

from __future__ import annotations

import pytest

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.runner import run_scenario
from repro.workloads.evalfn import EvalDirection, EvalKind
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.models import MODEL_ZOO, PAPER_POOL, make_job


class TestExtendedModels:
    def test_extended_models_present(self):
        for key in ("dcgan@pytorch", "stargan@pytorch", "xception@tensorflow"):
            assert key in MODEL_ZOO

    def test_gans_use_inception_score(self):
        for key in ("dcgan@pytorch", "stargan@pytorch"):
            evalfn = MODEL_ZOO[key].evalfn
            assert evalfn.kind is EvalKind.INCEPTION_SCORE
            assert evalfn.direction is EvalDirection.MAXIMIZE

    def test_inception_score_rises_with_training(self):
        job = make_job("dcgan@pytorch")
        start = job.eval_value()
        job.advance(job.total_work * 0.6)
        assert job.eval_value() > start

    def test_extended_models_are_resource_intensive(self):
        """§6 calls them "extremely resource intensive": the extended
        models must be the largest jobs in the zoo."""
        extended_work = min(
            MODEL_ZOO[k].base_work
            for k in ("dcgan@pytorch", "stargan@pytorch",
                      "xception@tensorflow")
        )
        paper_work = max(MODEL_ZOO[k].base_work for k in PAPER_POOL)
        assert extended_work > paper_work

    def test_not_in_default_random_pool(self):
        import numpy as np

        gen = WorkloadGenerator(np.random.default_rng(0))
        specs = gen.random_mix(40)
        assert all(s.model_key in PAPER_POOL for s in specs)

    def test_flowcon_handles_gan_heavy_mix(self):
        """A mixed GAN + classifier workload runs to completion and the
        score-maximizing jobs are classified like any loss job (Eq. 1 is
        direction-agnostic)."""
        specs = WorkloadGenerator.fixed(
            [
                ("dcgan@pytorch", 0.0),
                ("mnist@tensorflow", 60.0),
                ("gru@tensorflow", 120.0),
            ]
        )
        cfg = SimulationConfig(seed=4)
        na = run_scenario(specs, NAPolicy(), cfg)
        fc = run_scenario(specs, FlowConPolicy(), cfg)
        assert len(fc.completion_times()) == 3
        # The late-arriving small jobs benefit from the long GAN's
        # eventual demotion or at least are not penalized.
        assert (
            fc.completion_times()["Job-3"]
            <= na.completion_times()["Job-3"] * 1.05
        )
