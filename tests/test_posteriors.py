"""Tests for the missing-value posterior service and fallback distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet import (
    CPT,
    BayesianNetwork,
    MissingValuePosteriors,
    dag_from_edges,
    empirical_distributions,
    random_cpt,
    uniform_distributions,
)
from repro.datasets import MISSING, IncompleteDataset, generate_nba, generate_synthetic


def two_attr_dataset():
    values = np.array([[1, MISSING], [MISSING, 0], [0, 1]])
    return IncompleteDataset(values=values, domain_sizes=[2, 2])


def chain_network():
    dag = dag_from_edges(2, iter([(0, 1)]))
    cpts = [
        CPT(0, (), np.array([0.3, 0.7])),
        CPT(1, (0,), np.array([[0.9, 0.1], [0.2, 0.8]])),
    ]
    return BayesianNetwork(dag, [2, 2], cpts)


class TestMissingValuePosteriors:
    def test_posterior_uses_object_evidence(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        # Object 0 observes a1=1, misses a2: pmf should be CPT row for a1=1.
        pmf = service.distribution((0, 1))
        assert pmf == pytest.approx([0.2, 0.8])

    def test_posterior_inverts_with_bayes(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        # Object 1 observes a2=0, misses a1: P(a1|a2=0) via Bayes rule.
        pmf = service.distribution((1, 0))
        p_a1_1 = 0.7 * 0.2 / (0.3 * 0.9 + 0.7 * 0.2)
        assert pmf[1] == pytest.approx(p_a1_1)

    def test_rejects_observed_cell(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        with pytest.raises(ValueError):
            service.distribution((2, 0))

    def test_all_distributions_covers_every_variable(self):
        ds = two_attr_dataset()
        service = MissingValuePosteriors(chain_network(), ds)
        dists = service.all_distributions()
        assert set(dists) == set(ds.variables())
        for pmf in dists.values():
            assert pmf.sum() == pytest.approx(1.0)

    def test_cardinality_mismatch_rejected(self):
        ds = IncompleteDataset(
            values=np.array([[MISSING, 0]]), domain_sizes=[3, 2]
        )
        with pytest.raises(ValueError):
            MissingValuePosteriors(chain_network(), ds)

    def test_cache_returns_copies(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        a = service.distribution((0, 1))
        a[0] = 123.0
        b = service.distribution((0, 1))
        assert b[0] != 123.0


def vstructure_network():
    dag = dag_from_edges(3, iter([(0, 2), (1, 2)]))
    cpt2 = np.array(
        [
            [[0.9, 0.1], [0.4, 0.6]],
            [[0.3, 0.7], [0.8, 0.2]],
        ]
    )
    cpts = [
        CPT(0, (), np.array([0.4, 0.6])),
        CPT(1, (), np.array([0.7, 0.3])),
        CPT(2, (0, 1), cpt2),
    ]
    return BayesianNetwork(dag, [2, 2, 2], cpts)


def random_incomplete(seed, n=30, d=2, missing_rate=0.4):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(n, d))
    values[rng.random((n, d)) < missing_rate] = MISSING
    return IncompleteDataset(values=values, domain_sizes=[2] * d)


def reference_posterior(network, target, evidence):
    """Per-row variable elimination as it ran before batching.

    The oracle the batched pass must match bit for bit: restrict every
    CPT factor by the evidence, eliminate by min-degree, multiply the
    leftovers into the target and normalise (uniform if the evidence is
    impossible).  Factors are ``(scope, table)`` pairs.
    """
    def multiply(a, b):
        scope = list(a[0]) + [v for v in b[0] if v not in a[0]]
        tables = []
        for variables, table in (a, b):
            axes = [scope.index(v) for v in variables]
            shape = [1] * len(scope)
            for axis, size in zip(axes, table.shape):
                shape[axis] = size
            tables.append(np.transpose(table, np.argsort(axes)).reshape(shape))
        return tuple(scope), tables[0] * tables[1]

    factors = []
    for cpt in network.cpts:
        scope, table = cpt.parents + (cpt.node,), cpt.table
        for variable, value in evidence.items():
            if variable in scope:
                axis = scope.index(variable)
                table = np.take(table, value, axis=axis)
                scope = scope[:axis] + scope[axis + 1 :]
        factors.append((scope, table))
    hidden = {v for scope, __ in factors for v in scope} - {target}
    scopes = [set(scope) for scope, __ in factors]
    while hidden:
        best = min(hidden, key=lambda v: (sum(1 for s in scopes if v in s), v))
        hidden.discard(best)
        merged = set().union(*[s for s in scopes if best in s]) - {best}
        scopes = [s for s in scopes if best not in s] + [merged]
        involved = [f for f in factors if best in f[0]]
        if involved:
            product = involved[0]
            for factor in involved[1:]:
                product = multiply(product, factor)
            axis = product[0].index(best)
            summed = (
                product[0][:axis] + product[0][axis + 1 :],
                product[1].sum(axis=axis),
            )
            factors = [f for f in factors if best not in f[0]] + [summed]
    card = network.cardinalities[target]
    result = ((target,), np.ones(card))
    for factor in factors:
        if factor[0] == ():
            result = (result[0], result[1] * float(factor[1]))
        else:
            result = multiply(result, factor)
    table = result[1].reshape(card)
    total = table.sum()
    if total <= 0:
        return np.full(card, 1.0 / card)
    return table / total


class TestVectorizedPrecompute:
    """The pattern-batched bulk pass must match per-cell inference exactly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_inference(self, seed):
        ds = random_incomplete(seed)
        variables, dense = MissingValuePosteriors(chain_network(), ds).precompute_all()
        per_cell = MissingValuePosteriors(chain_network(), ds)
        assert variables == list(ds.variables())
        for i, variable in enumerate(variables):
            expected = per_cell.distribution(variable)
            assert np.array_equal(dense[i, : expected.size], expected)
            assert (dense[i, expected.size :] == 0.0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_with_collider_network(self, seed):
        ds = random_incomplete(seed, d=3)
        service = MissingValuePosteriors(vstructure_network(), ds)
        variables, dense = service.precompute_all()
        per_cell = MissingValuePosteriors(vstructure_network(), ds)
        for i, variable in enumerate(variables):
            assert np.array_equal(dense[i, :2], per_cell.distribution(variable))

    def test_signature_group_accounting(self):
        ds = random_incomplete(0, n=40)
        service = MissingValuePosteriors(chain_network(), ds)
        variables, __ = service.precompute_all()
        stats = service.stats
        assert stats["cells"] == len(variables)
        rows_with_missing = {obj for obj, __ in variables}
        assert 0 < stats["signature_groups"] <= len(rows_with_missing)
        assert stats["inference_calls"] <= stats["cells"]

    def test_duplicate_rows_share_one_inference(self):
        values = np.array([[1, MISSING], [1, MISSING], [1, MISSING]])
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2])
        service = MissingValuePosteriors(chain_network(), ds)
        variables, dense = service.precompute_all()
        assert len(variables) == 3
        assert service.stats == {
            "signature_groups": 1,
            "cells": 3,
            "inference_calls": 1,
        }
        assert (dense == dense[0]).all()

    def test_complete_dataset_has_no_work(self):
        ds = IncompleteDataset(values=np.array([[1, 0]]), domain_sizes=[2, 2])
        service = MissingValuePosteriors(chain_network(), ds)
        variables, dense = service.precompute_all()
        assert variables == []
        assert dense.shape == (0, 2)
        assert service.stats == {
            "signature_groups": 0,
            "cells": 0,
            "inference_calls": 0,
        }

    def test_all_distributions_uses_bulk_path(self):
        ds = random_incomplete(1)
        service = MissingValuePosteriors(chain_network(), ds)
        dists = service.all_distributions()
        assert service.stats["cells"] == len(dists)
        fresh = MissingValuePosteriors(chain_network(), ds)
        for variable, pmf in dists.items():
            assert np.array_equal(pmf, fresh.distribution(variable))

    def test_pattern_groups_count_missing_patterns(self):
        values = np.array(
            [[1, MISSING, 0], [0, MISSING, 1], [MISSING, MISSING, MISSING], [1, 1, 0]]
        )
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2, 2])
        service = MissingValuePosteriors(vstructure_network(), ds)
        service.precompute_all()
        # Two patterns ({a2} and all three); one batched elimination per
        # missing attribute of each.
        assert service.stats == {
            "signature_groups": 2,
            "cells": 5,
            "inference_calls": 4,
        }

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_reference_elimination(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        n_nodes = data.draw(st.integers(1, 6), label="n_nodes")
        cards = [data.draw(st.integers(2, 5)) for __ in range(n_nodes)]
        edges = []
        cpts = []
        for node in range(n_nodes):
            candidates = list(range(node))
            n_parents = data.draw(st.integers(0, min(3, node)))
            parents = sorted(rng.choice(candidates, n_parents, replace=False).tolist())
            edges.extend((int(p), node) for p in parents)
            cpts.append(
                random_cpt(node, cards[node], parents, [cards[p] for p in parents], rng)
            )
        # Node 0 is a root; value 0 impossible makes every row observing
        # it zero-probability evidence (uniform fallback for that row only).
        root = cpts[0].table.copy()
        root[0] = 0.0
        cpts[0] = CPT(0, (), root / root.sum())
        network = BayesianNetwork(dag_from_edges(n_nodes, iter(edges)), cards, cpts)

        n_rows = data.draw(st.integers(1, 12), label="n_rows")
        values = np.column_stack(
            [rng.integers(0, c, size=n_rows) for c in cards]
        )
        mask = rng.random(values.shape) < data.draw(st.floats(0.0, 1.0))
        values[mask] = MISSING
        duplicates = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=4))
        impossible = np.full(n_nodes, MISSING)
        impossible[0] = 0
        values = np.vstack(
            [values, values[duplicates], np.full(n_nodes, MISSING), impossible]
        )
        ds = IncompleteDataset(values=values, domain_sizes=cards)

        variables, dense = MissingValuePosteriors(network, ds).precompute_all()
        per_cell = MissingValuePosteriors(network, ds)
        assert variables == list(ds.variables())
        for i, (obj, attr) in enumerate(variables):
            pmf = dense[i, : cards[attr]]
            evidence = ds.observed_evidence(obj)
            assert np.array_equal(pmf, per_cell.distribution((obj, attr)))
            assert np.array_equal(pmf, reference_posterior(network, attr, evidence))
        last = len(values) - 1
        for i, (obj, attr) in enumerate(variables):
            if obj == last:
                assert (dense[i, : cards[attr]] == 1.0 / cards[attr]).all()

    @pytest.mark.parametrize(
        "dataset",
        [
            pytest.param(
                lambda: generate_synthetic(n_objects=2000, missing_rate=0.1, seed=4),
                id="synthetic-2000",
            ),
            pytest.param(
                lambda: generate_nba(n_objects=1000, missing_rate=0.1, seed=4),
                id="nba-1000",
            ),
        ],
    )
    def test_bit_identical_on_generated_datasets(self, dataset):
        ds = dataset()
        network = BayesianNetwork.fit(ds.values, ds.domain_sizes, mask=ds.mask)
        variables, dense = MissingValuePosteriors(network, ds).precompute_all()
        reference = {}
        for i, (obj, attr) in enumerate(variables):
            evidence = ds.observed_evidence(obj)
            key = (attr, tuple(sorted(evidence.items())))
            if key not in reference:
                reference[key] = reference_posterior(network, attr, evidence)
            assert np.array_equal(dense[i, : ds.domain_sizes[attr]], reference[key])


class TestFallbackDistributions:
    def test_uniform(self):
        ds = two_attr_dataset()
        dists = uniform_distributions(ds)
        assert set(dists) == set(ds.variables())
        for pmf in dists.values():
            assert np.allclose(pmf, 0.5)

    def test_empirical_uses_column_marginals(self):
        ds = two_attr_dataset()
        dists = empirical_distributions(ds, smoothing=0.0)
        # Column a1 observes values {1, 0}: pmf [0.5, 0.5].
        assert dists[(1, 0)] == pytest.approx([0.5, 0.5])
        # Column a2 observes values {0, 1}: pmf [0.5, 0.5].
        assert dists[(0, 1)] == pytest.approx([0.5, 0.5])

    def test_empirical_smoothing_keeps_support(self):
        values = np.array([[1, MISSING], [1, 0]])
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2])
        dists = empirical_distributions(ds, smoothing=1.0)
        assert (dists[(0, 1)] > 0).all()
