"""Exact inference by variable elimination.

Used in the preprocessing step to learn "the probability distributions of
missing values leveraging Bayes rules" (Section 3): for each object, the
posterior of every missing attribute given the object's observed
attributes.

Elimination is batched over evidence rows.  Rows that observe the same
set of attributes (one *missing pattern*) share every factor scope after
restriction and therefore the whole elimination order; only their
evidence values differ.  Internally every table carries a leading row
axis of size ``R`` (one slice per evidence row) or 1 (shared by all rows,
broadcast), so a whole pattern is eliminated in one pass of numpy
operations.  A single query is the ``R = 1`` case of the same code.

Per row, the batched pass performs exactly the operations of a one-row
elimination: the same factor order, the same multiply pairing, the same
summed axis over the same memory layout (the row axis is always the
outermost) and the same normalisation.  Each row's pmf is therefore
bit-identical to querying that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


@dataclass
class _Batch:
    """Factor tables of a batch of rows: ``table`` is ``(R or 1, *cards)``."""

    variables: Tuple[int, ...]
    table: np.ndarray

    def restrict(self, column: Mapping[int, int], values: np.ndarray) -> "_Batch":
        """Condition a shared (one-row) table on every evidence row.

        Row ``r`` of the result is the table conditioned on
        ``variable = values[r, column[variable]]`` for every observed
        variable in the scope, which is dropped; the result is
        C-contiguous like :func:`np.take`.
        """
        picks = [i for i, v in enumerate(self.variables) if v in column]
        if not picks:
            return self
        index: List[object] = [np.zeros(values.shape[0], np.intp)]
        index.extend(slice(None) for __ in self.variables)
        for i in picks:
            index[i + 1] = values[:, column[self.variables[i]]]
        kept = tuple(v for v in self.variables if v not in column)
        # Advanced indices on the row axis and the picked axes put the row
        # axis first and keep the remaining axes in scope order.
        return _Batch(kept, np.ascontiguousarray(self.table[tuple(index)]))

    def multiply(self, other: "_Batch") -> "_Batch":
        """Pointwise product over the union scope (broadcasted)."""
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        merged_tuple = tuple(merged)
        left = _broadcast(self, merged_tuple)
        right = _broadcast(other, merged_tuple)
        return _Batch(merged_tuple, left * right)

    def marginalize(self, variable: int) -> "_Batch":
        """Sum out one variable."""
        axis = self.variables.index(variable)
        new_vars = self.variables[:axis] + self.variables[axis + 1 :]
        return _Batch(new_vars, self.table.sum(axis=axis + 1))


def _broadcast(factor: _Batch, scope: Tuple[int, ...]) -> np.ndarray:
    """Expand a batched table to a larger scope for multiplication."""
    source_axes = [scope.index(v) for v in factor.variables]
    full_shape = [factor.table.shape[0]] + [1] * len(scope)
    for axis, size in zip(source_axes, factor.table.shape[1:]):
        full_shape[axis + 1] = size
    # Permute the factor's axes into ascending scope order (the row axis
    # stays first), then pad with 1s.
    order = [0] + [1 + int(a) for a in np.argsort(source_axes)]
    permuted = np.transpose(factor.table, axes=order)
    return permuted.reshape(full_shape)


@dataclass
class Factor:
    """A non-negative table over a tuple of variables (attribute indices)."""

    variables: Tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != len(self.variables):
            raise ValueError("factor rank does not match its scope")

    def _batch(self) -> _Batch:
        return _Batch(self.variables, self.table[np.newaxis])

    @staticmethod
    def _single(batch: _Batch) -> "Factor":
        return Factor(batch.variables, batch.table[0])

    def restrict(self, variable: int, value: int) -> "Factor":
        """Condition on ``variable = value``, dropping it from the scope."""
        self.variables.index(variable)  # ValueError when not in scope
        values = np.array([[value]], dtype=np.intp)
        return self._single(self._batch().restrict({variable: 0}, values))

    def multiply(self, other: "Factor") -> "Factor":
        """Pointwise product over the union scope (broadcasted)."""
        return self._single(self._batch().multiply(other._batch()))

    def marginalize(self, variable: int) -> "Factor":
        """Sum out one variable."""
        return self._single(self._batch().marginalize(variable))


class VariableElimination:
    """Exact marginal queries against a set of CPT-derived factors."""

    def __init__(self, factors: Sequence[Factor], cardinalities: Sequence[int]) -> None:
        self._factors = list(factors)
        self._cards = list(int(c) for c in cardinalities)

    def query(self, target: int, evidence: Dict[int, int]) -> np.ndarray:
        """Posterior pmf ``P(target | evidence)``.

        Falls back to the uniform distribution when the evidence has
        zero probability under the model (cannot happen with smoothed CPTs).
        """
        return self.query_multi([target], evidence)[0]

    def query_multi(
        self, targets: Sequence[int], evidence: Dict[int, int]
    ) -> List[np.ndarray]:
        """Posterior pmfs of several targets under one shared evidence set.

        The one-row case of :meth:`query_batch`.
        """
        observed = list(evidence)
        values = np.array([[evidence[v] for v in observed]], dtype=np.intp)
        return [pmfs[0] for pmfs in self.query_batch(targets, observed, values)]

    def query_batch(
        self, targets: Sequence[int], observed: Sequence[int], values: np.ndarray
    ) -> List[np.ndarray]:
        """Posterior pmfs of several targets for a batch of evidence rows.

        Every row observes the variables ``observed``; row ``r`` observes
        ``observed[k] = values[r, k]`` (``values`` has shape
        ``(R, len(observed))``).  Returns one ``(R, card)`` array per
        target whose row ``r`` is ``P(target | evidence of row r)``,
        bit-identical to a separate :meth:`query` of that row.  Factor
        restriction happens once for the whole target list.
        """
        values = np.asarray(values, dtype=np.intp)
        if values.ndim != 2 or values.shape[1] != len(observed):
            raise ValueError("values must have shape (rows, len(observed))")
        n_rows = values.shape[0]
        column = {v: k for k, v in enumerate(observed)}
        restricted = [f._batch().restrict(column, values) for f in self._factors]
        out: List[np.ndarray] = []
        for target in targets:
            card = self._cards[target]
            if target in column:
                point = np.zeros((n_rows, card))
                point[np.arange(n_rows), values[:, column[target]]] = 1.0
                out.append(point)
            else:
                pmf = self._eliminate(restricted, target)
                if pmf.shape[0] != n_rows:  # every factor was shared
                    pmf = np.repeat(pmf, n_rows, axis=0)
                out.append(pmf)
        return out

    def _eliminate(self, restricted: List[_Batch], target: int) -> np.ndarray:
        """Sum out everything but ``target`` from evidence-restricted factors.

        Returns ``(R or 1, card)``: one normalised pmf per row.
        """
        factors = list(restricted)
        hidden = set()
        for factor in factors:
            hidden.update(factor.variables)
        hidden.discard(target)

        for variable in self._elimination_order(factors, hidden, target):
            involved = [f for f in factors if variable in f.variables]
            if not involved:
                continue
            product = involved[0]
            for factor in involved[1:]:
                product = product.multiply(factor)
            summed = product.marginalize(variable)
            factors = [f for f in factors if variable not in f.variables]
            factors.append(summed)

        card = self._cards[target]
        result = _Batch((target,), np.ones((1, card)))
        for factor in factors:  # scopes are () or (target,) by now
            result = result.multiply(factor)
        table = result.table
        total = table.sum(axis=1)
        # Zero-probability evidence: that row falls back to uniform.
        empty = total <= 0
        pmf = table / np.where(empty, 1.0, total)[:, np.newaxis]
        pmf[empty] = 1.0 / card
        return pmf

    def _elimination_order(self, factors, hidden, target) -> List[int]:
        """Min-degree heuristic: eliminate the variable in the fewest factors first."""
        remaining = set(hidden)
        order: List[int] = []
        scopes = [set(f.variables) for f in factors]
        while remaining:
            best = min(
                remaining,
                key=lambda v: (sum(1 for s in scopes if v in s), v),
            )
            order.append(best)
            remaining.discard(best)
            merged = set()
            kept = []
            for scope in scopes:
                if best in scope:
                    merged |= scope - {best}
                else:
                    kept.append(scope)
            kept.append(merged)
            scopes = kept
        return order
