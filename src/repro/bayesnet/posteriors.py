"""Missing-value posterior service.

The preprocessing step of BayesCrowd (Section 3): given a trained
Bayesian network and an incomplete dataset, learn a probability
distribution for every variable ``Var(o, a)`` -- the posterior of
attribute ``a`` given the *observed* attributes of object ``o``.

Like the paper's ADPLL (which multiplies ``prob * p(v_a)`` per variable),
downstream probability computation treats variables as independent with
these marginal posteriors; this class is the single place the marginals
are produced.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..datasets.dataset import IncompleteDataset, Variable
from .network import BayesianNetwork


class MissingValuePosteriors:
    """Computes and caches per-variable posterior distributions."""

    def __init__(self, network: BayesianNetwork, dataset: IncompleteDataset) -> None:
        if network.n_nodes != dataset.n_attributes:
            raise ValueError("network/dataset attribute count mismatch")
        for j in range(dataset.n_attributes):
            if network.cardinalities[j] != dataset.domain_sizes[j]:
                raise ValueError(
                    "attribute %d: network cardinality %d != domain size %d"
                    % (j, network.cardinalities[j], dataset.domain_sizes[j])
                )
        self._network = network
        self._dataset = dataset
        self._cache: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], np.ndarray] = {}
        #: populated by :meth:`precompute_all` (pattern grouping counters)
        self.stats: Dict[str, int] = {}

    def distribution(self, variable: Variable) -> np.ndarray:
        """Posterior pmf of one missing cell given its object's observed cells."""
        obj, attr = variable
        if not self._dataset.is_missing(obj, attr):
            raise ValueError("cell (%d, %d) is not missing" % (obj, attr))
        evidence = self._dataset.observed_evidence(obj)
        key = (attr, tuple(sorted(evidence.items())))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._network.posterior(attr, evidence)
            self._cache[key] = cached
        return cached.copy()

    def precompute_all(self) -> Tuple[List[Variable], np.ndarray]:
        """Posterior pmfs of every missing cell, one elimination per pattern.

        A *missing pattern* is the set of attributes missing in a row.
        Rows sharing a pattern share every factor scope and the
        elimination order; only their evidence values differ.  Rows with
        missing cells are therefore grouped by mask row, duplicate value
        rows within a group are folded together, and each group goes
        through :meth:`BayesianNetwork.posterior_batch` once: a batched
        variable elimination per missing attribute of the pattern, over
        all of the group's distinct evidence rows at once.

        Returns ``(variables, dense)``: the dataset's missing cells in
        :meth:`IncompleteDataset.variables` order and a
        ``(n_variables, max_domain)`` float array whose row ``i`` holds the
        pmf of ``variables[i]``, zero-padded past the attribute's domain
        (ready to feed :class:`DistributionStore` construction).  Each pmf
        is bit-identical to a per-cell :meth:`distribution` call.

        ``self.stats`` records ``signature_groups`` (missing patterns),
        ``cells`` (missing cells served) and ``inference_calls`` (batched
        eliminations run: one per missing attribute of each pattern).
        """
        dataset = self._dataset
        variables = list(dataset.variables())
        sizes = dataset.domain_sizes
        max_domain = max(sizes) if sizes else 0
        dense = np.zeros((len(variables), max_domain))
        if not variables:
            self.stats = {"signature_groups": 0, "cells": 0, "inference_calls": 0}
            return variables, dense

        mask = dataset.mask
        # dense row of every missing cell (variables() is row-major).
        cell_index = np.full(mask.shape, -1, dtype=np.int64)
        cell_index[mask] = np.arange(len(variables))
        rows = np.flatnonzero(mask.any(axis=1))
        patterns, pattern_of_row = np.unique(
            mask[rows], axis=0, return_inverse=True
        )
        pattern_of_row = pattern_of_row.reshape(-1)
        inference_calls = 0
        for p, pattern in enumerate(patterns):
            members = rows[pattern_of_row == p]
            targets = np.flatnonzero(pattern).tolist()
            observed = np.flatnonzero(~pattern).tolist()
            evidence, row_of_member = np.unique(
                dataset.values[np.ix_(members, observed)],
                axis=0,
                return_inverse=True,
            )
            row_of_member = row_of_member.reshape(-1)
            pmfs = self._network.posterior_batch(targets, observed, evidence)
            inference_calls += len(targets)
            for target, pmf in zip(targets, pmfs):
                dense[cell_index[members, target], : sizes[target]] = pmf[row_of_member]
        self.stats = {
            "signature_groups": len(patterns),
            "cells": len(variables),
            "inference_calls": inference_calls,
        }
        return variables, dense

    def all_distributions(self) -> Dict[Variable, np.ndarray]:
        """Posteriors for every missing cell of the dataset (bulk path)."""
        variables, dense = self.precompute_all()
        sizes = self._dataset.domain_sizes
        return {
            (obj, attr): dense[i, : sizes[attr]].copy()
            for i, (obj, attr) in enumerate(variables)
        }


def uniform_distributions(dataset: IncompleteDataset) -> Dict[Variable, np.ndarray]:
    """Zero-knowledge fallback: uniform pmf over each attribute domain.

    Matches the paper's baseline assumption that "there is no prior
    knowledge on the missing values"; used when no Bayesian network is
    supplied (and by tests that need deterministic distributions).
    """
    out: Dict[Variable, np.ndarray] = {}
    for variable in dataset.variables():
        __, attr = variable
        size = dataset.domain_sizes[attr]
        out[variable] = np.full(size, 1.0 / size)
    return out


def empirical_distributions(
    dataset: IncompleteDataset, smoothing: float = 1.0
) -> Dict[Variable, np.ndarray]:
    """Column-marginal distributions estimated from observed values.

    A middle ground between uniform and full BN posteriors: each variable's
    pmf is the smoothed empirical distribution of its attribute's observed
    values (no cross-attribute correlation).
    """
    pmfs = []
    for j, size in enumerate(dataset.domain_sizes):
        column = dataset.values[:, j]
        observed = column[column >= 0]
        counts = np.bincount(observed, minlength=size).astype(np.float64)
        counts += smoothing
        pmfs.append(counts / counts.sum())
    out: Dict[Variable, np.ndarray] = {}
    for variable in dataset.variables():
        __, attr = variable
        out[variable] = pmfs[attr].copy()
    return out
