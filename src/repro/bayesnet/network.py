"""Discrete Bayesian network: joint model, sampling, fitting, queries."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .cpt import CPT
from .dag import DAG
from .inference import Factor, VariableElimination
from .parameters import fit_cpt
from .structure import hill_climb


class BayesianNetwork:
    """A fully-specified discrete Bayesian network over attribute indices.

    Nodes are attribute indices ``0..d-1`` with cardinalities
    ``cardinalities[j]``.  The network owns one :class:`CPT` per node whose
    parent set matches ``dag``.
    """

    def __init__(
        self,
        dag: DAG,
        cardinalities: Sequence[int],
        cpts: Sequence[CPT],
        node_names: Optional[List[str]] = None,
    ) -> None:
        self.dag = dag
        self.cardinalities = list(int(c) for c in cardinalities)
        if dag.n_nodes != len(self.cardinalities):
            raise ValueError("DAG size does not match cardinalities")
        if len(cpts) != dag.n_nodes:
            raise ValueError("expected one CPT per node")
        self.cpts: List[CPT] = [None] * dag.n_nodes  # type: ignore[list-item]
        for cpt in cpts:
            if set(cpt.parents) != set(dag.parents(cpt.node)):
                raise ValueError(
                    "CPT parents %r disagree with DAG parents of node %d"
                    % (cpt.parents, cpt.node)
                )
            if cpt.cardinality != self.cardinalities[cpt.node]:
                raise ValueError("CPT cardinality mismatch for node %d" % cpt.node)
            self.cpts[cpt.node] = cpt
        if any(c is None for c in self.cpts):
            raise ValueError("missing CPT for some node")
        self.node_names = node_names or ["a%d" % (j + 1) for j in range(dag.n_nodes)]
        self._order = dag.topological_order()
        self._ve: Optional[VariableElimination] = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.dag.n_nodes

    def joint_probability(self, assignment: Sequence[int]) -> float:
        """Probability of one complete assignment (chain rule)."""
        if len(assignment) != self.n_nodes:
            raise ValueError("assignment length mismatch")
        prob = 1.0
        values = {j: int(assignment[j]) for j in range(self.n_nodes)}
        for node in range(self.n_nodes):
            prob *= self.cpts[node].probability(values[node], values)
        return prob

    def log_likelihood(self, data: np.ndarray) -> float:
        """Sum of log joint probabilities of complete rows."""
        total = 0.0
        for row in np.asarray(data, dtype=np.int64):
            p = self.joint_probability(row)
            if p <= 0:
                return float("-inf")
            total += float(np.log(p))
        return total

    # ------------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Forward (ancestral) sampling of ``n`` complete rows."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.zeros((n, self.n_nodes), dtype=np.int64)
        for node in self._order:
            cpt = self.cpts[node]
            if not cpt.parents:
                pmf = cpt.table
                out[:, node] = rng.choice(len(pmf), size=n, p=pmf)
                continue
            # Group rows by parent configuration for vectorized sampling.
            parent_cols = out[:, list(cpt.parents)]
            shape = cpt.parent_cards()
            flat = np.ravel_multi_index(parent_cols.T, shape) if n else np.array([], dtype=np.int64)
            uniques = np.unique(flat)
            for config in uniques:
                rows = np.nonzero(flat == config)[0]
                pmf = cpt.table.reshape(-1, cpt.cardinality)[config]
                out[rows, node] = rng.choice(cpt.cardinality, size=len(rows), p=pmf)
        return out

    # ------------------------------------------------------------------
    def posterior(self, target: int, evidence: Dict[int, int]) -> np.ndarray:
        """Exact posterior pmf of ``target`` given the evidence dict."""
        return self._elimination().query(target, evidence)

    def posterior_batch(
        self, targets: Sequence[int], observed: Sequence[int], values: np.ndarray
    ) -> List[np.ndarray]:
        """Exact posteriors of several nodes for a batch of evidence rows.

        Row ``r`` of ``values`` (shape ``(R, len(observed))``) holds the
        values of the ``observed`` nodes; one ``(R, card)`` array per
        target comes back, row ``r`` bit-identical to a separate
        :meth:`posterior` call with that row's evidence.
        """
        return self._elimination().query_batch(targets, observed, values)

    def _elimination(self) -> VariableElimination:
        if self._ve is None:
            factors = [
                Factor(cpt.parents + (cpt.node,), cpt.table) for cpt in self.cpts
            ]
            self._ve = VariableElimination(factors, self.cardinalities)
        return self._ve

    def prior(self, target: int) -> np.ndarray:
        """Marginal pmf of one node with no evidence."""
        return self.posterior(target, {})

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        data: np.ndarray,
        cardinalities: Sequence[int],
        max_parents: int = 3,
        smoothing: float = 1.0,
        node_names: Optional[List[str]] = None,
        rng: Optional[np.random.Generator] = None,
        dag: Optional[DAG] = None,
        mask: Optional[np.ndarray] = None,
    ) -> "BayesianNetwork":
        """Learn structure (hill climbing + BIC) and parameters.

        Pass ``dag`` to skip structure search and fit parameters only.
        With ``mask`` (True = missing cell), both steps use available-case
        analysis, so fully-incomplete datasets can be fitted directly;
        masked cells of ``data`` are never read.
        """
        data = np.asarray(data, dtype=np.int64).copy()
        if mask is not None:
            data[mask] = 0  # neutralize sentinel values; rows are filtered anyway
        if dag is None:
            dag = hill_climb(
                data, cardinalities, max_parents=max_parents, rng=rng, mask=mask
            ).dag
        cpts = [
            fit_cpt(
                data,
                node,
                sorted(dag.parents(node)),
                cardinalities,
                alpha=smoothing,
                mask=mask,
            )
            for node in range(dag.n_nodes)
        ]
        return cls(dag, cardinalities, cpts, node_names=node_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BayesianNetwork(nodes=%d, edges=%d)" % (self.n_nodes, self.dag.n_edges())
