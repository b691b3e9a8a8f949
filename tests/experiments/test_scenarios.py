"""Unit tests for scenario builders."""

from __future__ import annotations

from repro.experiments.scenarios import (
    fixed_three_job,
    random_fifteen_job,
    random_five_job,
    random_ten_job,
)


class TestFixed:
    def test_paper_schedule(self):
        specs = fixed_three_job()
        assert [(s.model_key, s.submit_time) for s in specs] == [
            ("vae@pytorch", 0.0),
            ("mnist@pytorch", 40.0),
            ("mnist@tensorflow", 80.0),
        ]


class TestRandom:
    def test_sizes(self):
        assert len(random_five_job()) == 5
        assert len(random_ten_job()) == 10
        assert len(random_fifteen_job()) == 15

    def test_arrival_window(self):
        for specs in (random_five_job(), random_ten_job(), random_fifteen_job()):
            assert all(0.0 <= s.submit_time <= 200.0 for s in specs)

    def test_seeded_reproducibility(self):
        a = random_ten_job(seed=5)
        b = random_ten_job(seed=5)
        assert [(s.model_key, s.submit_time) for s in a] == [
            (s.model_key, s.submit_time) for s in b
        ]

    def test_different_seeds_differ(self):
        a = random_ten_job(seed=5)
        b = random_ten_job(seed=6)
        assert [s.submit_time for s in a] != [s.submit_time for s in b]

    def test_labels_sequential(self):
        specs = random_fifteen_job()
        assert [s.label for s in specs] == [f"Job-{i}" for i in range(1, 16)]

    def test_five_job_uses_paper_mix(self):
        keys = {s.model_key for s in random_five_job()}
        assert keys == {
            "lstm_cfc@tensorflow",
            "vae@pytorch",
            "vae@tensorflow",
            "mnist@pytorch",
            "gru@tensorflow",
        }


class TestMultiTenant:
    def test_two_unequal_weight_tenants(self):
        from repro.experiments.scenarios import multi_tenant

        sc = multi_tenant(seed=3)
        assert {s.tenant for s in sc.specs} == {"batch", "interactive"}
        assert sc.admission == "wfq"
        interactive = [s for s in sc.specs if s.tenant == "interactive"]
        batch = [s for s in sc.specs if s.tenant == "batch"]
        assert len(interactive) + len(batch) == len(sc.specs)
        assert len(batch) > len(interactive)  # the flood vs the light tenant
        assert all(s.weight == 4.0 for s in interactive)
        assert all(s.weight == 1.0 for s in batch)

    def test_deterministic_tenant_assignment(self):
        from repro.experiments.scenarios import multi_tenant

        a = multi_tenant(seed=1)
        b = multi_tenant(seed=1)
        assert [(s.label, s.tenant, s.weight) for s in a.specs] == [
            (s.label, s.tenant, s.weight) for s in b.specs
        ]


class TestElasticCluster:
    def test_shape_is_undersized_and_recommends_autoscale(self):
        from repro.experiments.scenarios import elastic_cluster

        sc = elastic_cluster(seed=3)
        assert sc.n_workers == 2
        assert sc.autoscale == "queue_depth"
        assert all(n is not None for n in sc.max_containers)

    def test_seeded_reproducibility(self):
        from repro.experiments.scenarios import elastic_cluster

        a, b = elastic_cluster(seed=4), elastic_cluster(seed=4)
        assert [s.submit_time for s in a.specs] == [
            s.submit_time for s in b.specs
        ]
