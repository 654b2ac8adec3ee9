"""Micro-benchmarks of the substrate layers.

Not paper figures; they track the fixed costs every query pays: dominator
derivation, skyline ground truth, Bayesian-network learning and exact
inference, and the crowd platform's answer pipeline.
"""

import numpy as np
import pytest

from repro.bayesnet import BayesianNetwork, MissingValuePosteriors, hill_climb
from repro.crowd import ComparisonTask, SimulatedCrowdPlatform
from repro.ctable import dominator_sets_baseline, dominator_sets_fast, var_greater_const
from repro.datasets import generate_nba, generate_synthetic
from repro.skyline import skyline, skyline_layers


@pytest.mark.parametrize("n", [200, 400, 800])
def test_dominator_sets_fast(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.1, seed=1)
    sets = once(benchmark, lambda: dominator_sets_fast(dataset))
    benchmark.extra_info["mean_set_size"] = float(
        np.mean([len(s) for s in sets])
    )


@pytest.mark.parametrize("n", [200, 400])
def test_dominator_sets_baseline(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.1, seed=1)
    once(benchmark, lambda: dominator_sets_baseline(dataset))


@pytest.mark.parametrize("n", [500, 2000])
def test_skyline_ground_truth(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.0, seed=1)
    members = once(benchmark, lambda: skyline(dataset.complete))
    benchmark.extra_info["skyline_size"] = len(members)


def test_skyline_layers_decomposition(benchmark, once):
    dataset = generate_nba(n_objects=400, missing_rate=0.0, seed=1)
    layers = once(benchmark, lambda: skyline_layers(dataset.complete))
    benchmark.extra_info["n_layers"] = len(layers)


def test_bn_structure_learning(benchmark, once):
    dataset = generate_synthetic(n_objects=1500, missing_rate=0.1, seed=1)
    neutral = dataset.values.copy()
    neutral[dataset.mask] = 0
    result = once(
        benchmark,
        lambda: hill_climb(
            neutral, dataset.domain_sizes, max_parents=3, mask=dataset.mask
        ),
    )
    benchmark.extra_info["edges_learned"] = result.dag.n_edges()


def test_bn_posterior_queries(benchmark, once):
    dataset = generate_synthetic(n_objects=1500, missing_rate=0.1, seed=1)
    network = BayesianNetwork.fit(
        dataset.values, dataset.domain_sizes, mask=dataset.mask
    )
    evidence_sets = [dataset.observed_evidence(o) for o in range(100)]

    def query_all():
        return [network.posterior(0, {k: v for k, v in ev.items() if k != 0})
                for ev in evidence_sets]

    once(benchmark, query_all)


def test_bn_precompute_all(benchmark, once):
    dataset = generate_synthetic(n_objects=1500, missing_rate=0.1, seed=1)
    network = BayesianNetwork.fit(
        dataset.values, dataset.domain_sizes, mask=dataset.mask
    )
    service = MissingValuePosteriors(network, dataset)
    variables, __ = once(benchmark, service.precompute_all)
    benchmark.extra_info["cells"] = len(variables)
    benchmark.extra_info["patterns"] = service.stats["signature_groups"]


def test_crowd_platform_round_trip(benchmark, once):
    dataset = generate_nba(n_objects=300, missing_rate=0.1, seed=1)
    platform = SimulatedCrowdPlatform(
        dataset, worker_accuracy=0.9, rng=np.random.default_rng(0),
        enforce_conflict_free=False,
    )
    variables = list(dataset.variables())[:200]
    tasks = [ComparisonTask(var_greater_const(o, a, 2)) for o, a in variables]

    once(benchmark, lambda: platform.post_batch(tasks))
