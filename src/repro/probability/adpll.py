"""ADPLL: adaptive DPLL search for condition probabilities (Algorithm 3).

Computing ``Pr(phi(o))`` is at least as hard as #SAT (weighted model
counting): variables range over multi-value discrete domains instead of
{0, 1}.  ADPLL adapts DPLL-style model counting:

* when the condition is constant the answer is immediate;
* when the clauses are *independent* (no variable appears in two different
  expressions) the probability follows directly from the special
  conjunctive rule ``Pr(p ^ q) = Pr(p) * Pr(q)`` and the general
  disjunctive rule ``Pr(p v q) = 1 - Pr(!p ^ !q)``;
* otherwise it branches on the variable occurring most often, summing
  ``p(v = a) * Pr(phi[v := a])`` over the variable's support, which breaks
  clause correlation "as quickly as possible".

On top of the paper's algorithm this implementation adds two standard
model-counting refinements (both can be disabled for ablation):

* **connected-component decomposition** -- clauses sharing no variable
  factorize, so each component is solved independently and multiplied;
* **sub-condition memoization** -- identical residual conditions reached
  along different branches are computed once.

Exact model counting is worst-case exponential, so the solver can run
under a **resource guard**: ``node_budget`` bounds the branch nodes one
``probability`` call may expand and ``deadline_s`` its wall time; on
exhaustion the call raises :class:`repro.errors.ResourceBudgetError`
(callers degrade to sampling; see :mod:`repro.probability.guard`).  The
memo is only written after a subtree completes, so an aborted call never
poisons it, and a guarded call that does *not* trip returns bit-for-bit
the same value as an unguarded one.
"""

from __future__ import annotations

import math
import time
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from ..ctable.condition import Condition
from ..ctable.expression import Var
from ..datasets.dataset import Variable
from ..errors import ResourceBudgetError
from ..lru import LRUCache
from .distributions import DistributionStore

#: Default bound on the sub-condition memo table.  Long crowdsourcing
#: runs accumulate stale-version entries (conditions whose variables were
#: constrained later are never looked up again); LRU eviction caps the
#: table while keeping the recently hot residuals.
DEFAULT_MEMO_SIZE = 262_144

#: available branching-variable heuristics (shared with the circuit
#: compiler, which splits on the same variable order):
#: ``frequency``  -- most occurrences in the condition (the paper's);
#: ``min_domain`` -- smallest domain under ``domain_size`` (fail-first);
#: ``first``      -- smallest variable id (arbitrary-but-fixed control).
BRANCH_HEURISTICS = ("frequency", "min_domain", "first")


def pick_branch_variable(
    condition: Condition,
    heuristic: str = "frequency",
    domain_size: Optional[Callable[[Variable], int]] = None,
) -> Variable:
    """The next variable to split on, shared by ADPLL and the compiler.

    ``domain_size`` supplies the per-variable size for ``min_domain``
    (ADPLL passes remaining support, the compiler the base domain).  Ties
    break on the smallest variable id so runs are reproducible (the paper
    breaks ties randomly).
    """
    counts = condition.variable_counts()
    if heuristic == "frequency":
        return min(counts, key=lambda v: (-counts[v], v))
    if heuristic == "min_domain":
        if domain_size is None:
            raise ValueError("min_domain needs a domain_size callback")
        return min(counts, key=lambda v: (domain_size(v), v))
    return min(counts)


def _clause_log_probability(clause, store: DistributionStore) -> float:
    """``log Pr(clause)`` of one disjunction over variable-disjoint expressions.

    A certainly-true expression makes the clause certain (``0.0``; the
    ``log1p(-1)`` it would need raises instead), and an impossible clause
    -- every expression certainly false, or none left -- is ``-inf``.
    The expression order does not matter: ``fsum`` rounds exactly once.
    """
    log_none_true = []
    for expression in clause:
        p = store.prob_expression(expression)
        if p >= 1.0:
            return 0.0
        log_none_true.append(math.log1p(-p))
    clause_p = -math.expm1(math.fsum(log_none_true))
    if clause_p <= 0.0:
        return -math.inf
    return math.log(clause_p)


def _independent_probability(condition: Condition, store: DistributionStore) -> float:
    """Direct evaluation via the conjunctive + disjunctive rules.

    Accumulated in log space: a wide clause's complement product
    ``prod(1 - p_i)`` multiplies many factors near 1 (tiny ``p_i``), where
    the naive running-product loop loses one ulp per step and can drift
    past the engine's 1e-9 parity budget -- and a long conjunction of
    near-zero clause probabilities underflows to 0 earlier than the log
    sum does.  ``fsum(log1p(-p))`` keeps both exact to the last rounding.
    The clause logs are summed in the condition's canonical clause order,
    which the split kernel (:meth:`ADPLL._split`) reproduces bit for bit.
    """
    log_result = 0.0
    for clause in condition.clauses:
        log_p = _clause_log_probability(clause, store)
        if log_p == -math.inf:
            return 0.0
        log_result += log_p
    return math.exp(log_result)


class ADPLL:
    """Reusable ADPLL solver bound to one distribution store.

    ``use_components`` / ``use_memo`` toggle the refinements for ablation;
    with both off, :meth:`probability` is a faithful rendering of the
    paper's Algorithm 3 (with deterministic smallest-variable tie-breaking
    instead of a random one, for reproducibility).
    """

    #: see the module-level :data:`BRANCH_HEURISTICS` (shared with the
    #: circuit compiler); kept as a class attribute for callers
    BRANCH_HEURISTICS = BRANCH_HEURISTICS

    def __init__(
        self,
        store: DistributionStore,
        use_components: bool = True,
        use_memo: bool = True,
        branch_heuristic: str = "frequency",
        use_absorption: bool = False,
        memo_size: int = DEFAULT_MEMO_SIZE,
        node_budget: int = 0,
        deadline_s: float = 0.0,
    ) -> None:
        if branch_heuristic not in self.BRANCH_HEURISTICS:
            raise ValueError(
                "unknown branch heuristic %r; expected one of %r"
                % (branch_heuristic, self.BRANCH_HEURISTICS)
            )
        if node_budget < 0:
            raise ValueError("node_budget must be non-negative (0 = unlimited)")
        if deadline_s < 0:
            raise ValueError("deadline_s must be non-negative (0 = no deadline)")
        self._store = store
        self._use_components = use_components
        self._use_memo = use_memo
        self._branch_heuristic = branch_heuristic
        self._use_absorption = use_absorption
        #: per-call cap on branch nodes (0 = unlimited)
        self.node_budget = int(node_budget)
        #: per-call wall-clock deadline in seconds (0 = none)
        self.deadline_s = float(deadline_s)
        #: condition -> (probability, store version when computed), bounded
        #: LRU (``memo_size <= 0`` keeps it unbounded)
        self._memo: "LRUCache[Condition, Tuple[float, int]]" = LRUCache(memo_size)
        #: number of branching (variable assignment) steps taken so far
        self.branch_count = 0
        #: values the split kernel priced without building a residual
        self.split_values = 0
        #: probability calls aborted by the resource guard
        self.guard_trips = 0
        self._call_branch_start = 0
        self._deadline_at: Optional[float] = None

    def probability(self, condition: Condition) -> float:
        """``Pr(condition)`` under the store's current distributions.

        With a ``node_budget`` or ``deadline_s`` configured, raises
        :class:`ResourceBudgetError` when this one call exceeds either;
        the memo stays clean (only completed subtrees are ever cached).
        """
        self._call_branch_start = self.branch_count
        self._deadline_at = (
            time.perf_counter() + self.deadline_s if self.deadline_s > 0 else None
        )
        try:
            return self._probability(condition)
        except ResourceBudgetError:
            self.guard_trips += 1
            raise
        finally:
            self._deadline_at = None

    def _check_guards(self) -> None:
        if self.node_budget:
            spent = self.branch_count - self._call_branch_start
            if spent >= self.node_budget:
                raise ResourceBudgetError(
                    "ADPLL node budget", float(spent), float(self.node_budget)
                )
        if self._deadline_at is not None:
            now = time.perf_counter()
            if now >= self._deadline_at:
                raise ResourceBudgetError(
                    "ADPLL deadline",
                    self.deadline_s + (now - self._deadline_at),
                    self.deadline_s,
                )

    # ------------------------------------------------------------------
    def _memo_get(self, condition: Condition) -> Optional[float]:
        cached = self._memo.get(condition)
        if cached is None:
            return None
        value, cached_version = cached
        version = self._store.version
        if cached_version == version:
            return value
        if self._store.variables_unchanged_since(condition.variables(), cached_version):
            # The scan proved the entry still valid at the current version:
            # store that, so the next hit matches on version equality
            # instead of re-paying the per-variable scan every time.
            self._memo[condition] = (value, version)
            return value
        return None

    def _probability(self, condition: Condition) -> float:
        if condition.is_true:
            return 1.0
        if condition.is_false:
            return 0.0
        if self._use_memo:
            cached = self._memo_get(condition)
            if cached is not None:
                return cached
        if condition.is_variable_disjoint():
            result = _independent_probability(condition, self._store)
        elif self._use_components:
            result = 1.0
            for component in condition.connected_components():
                result *= self._solve_component(component)
        else:
            result = self._branch(condition)
        if self._use_memo:
            self._memo[condition] = (result, self._store.version)
        return result

    def _solve_component(self, component: Condition) -> float:
        if self._use_memo:
            cached = self._memo_get(component)
            if cached is not None:
                return cached
        if component.is_variable_disjoint():
            result = _independent_probability(component, self._store)
        else:
            result = self._branch(component)
        if self._use_memo:
            self._memo[component] = (result, self._store.version)
        return result

    def _pick_branch_variable(self, condition: Condition) -> Variable:
        return pick_branch_variable(
            condition,
            self._branch_heuristic,
            domain_size=lambda v: len(self._store.support(v)),
        )

    def _branch(self, condition: Condition) -> float:
        """Sum over the support of the chosen branching variable."""
        if self.node_budget or self._deadline_at is not None:
            self._check_guards()
        if self._use_absorption:
            condition = condition.absorbed()
            if condition.is_constant:
                return 1.0 if condition.is_true else 0.0
        variable = self._pick_branch_variable(condition)
        pmf = self._store.pmf(variable)
        support = self._store.support(variable)
        # One bulk ndarray->list conversion instead of a float()/indexing
        # pair per iteration: this loop is the deepest hot path.
        values = support.tolist()
        weights = pmf[support].tolist()
        if self._single_split(condition, variable):
            return self._split(condition, variable, values, weights)
        total = 0.0
        for value, weight in zip(values, weights):
            residual = condition.substitute(variable, value)
            self.branch_count += 1
            total += weight * self._probability(residual)
        return total

    @staticmethod
    def _single_split(condition: Condition, variable: Variable) -> bool:
        """True when every variable but ``variable`` occurs exactly once.

        Then no residual ``condition[variable := x]`` needs a further split
        (each is variable-disjoint), and no two of its clauses coincide
        (each keeps an expression over variables no other clause has).
        """
        counts = condition.variable_counts()
        return sum(counts.values()) - counts[variable] == len(counts) - 1

    def _split(
        self,
        condition: Condition,
        variable: Variable,
        values: List[int],
        weights: List[float],
    ) -> float:
        """The split kernel: ``sum p(x) * Pr(condition[variable := x])``.

        For a single split the residuals are all variable-disjoint, so
        instead of building a residual :class:`Condition` per value
        (substitute, sort, hash, memo round-trip) one plan per split
        records for each clause the values of ``x`` that satisfy it
        (``v > c`` holds iff ``x > c``; ``c > v`` iff ``x < c``), the
        sort key of the rest of the clause and that rest's
        log-probability.  Only clauses with a ``v``-vs-``w`` expression
        are re-priced per value, since their residual (``x > w`` or
        ``w > x``) moves with ``x``.  Each value sums its clause logs in
        the residual's canonical clause order, as
        :func:`_independent_probability` does, so the result is
        bit-identical to the general branch.  Nothing is memoized: the
        residuals are never materialized.
        """
        store = self._store
        #: (rest's sort key, above, below, log-probability): a clause is
        #: satisfied when ``x > above`` or ``x < below``
        fixed = []
        #: (above, below, rest, v-vs-w expressions)
        moving = []
        for clause in condition.clauses:
            above = math.inf
            below = -math.inf
            rest = []
            pairs = []
            for expression in clause:
                names = expression.variables()
                if variable not in names:
                    rest.append(expression)
                elif len(names) == 1:
                    if isinstance(expression.left, Var):
                        above = min(above, expression.right.value)
                    else:
                        below = max(below, expression.left.value)
                elif names[0] != names[1]:
                    pairs.append(expression)
            if pairs:
                moving.append((above, below, rest, pairs))
                continue
            log_p = _clause_log_probability(rest, store)
            if log_p != 0.0:  # a certain clause never moves the sum
                fixed.append((tuple(e.sort_key() for e in rest), above, below, log_p))
        fixed.sort(key=itemgetter(0))
        total = 0.0
        for value, weight in zip(values, weights):
            # An emptied or impossible clause adds -inf: exp gives the 0.0
            # the general branch returns for a false residual.
            if moving:
                terms = [
                    (key, log_p)
                    for key, above, below, log_p in fixed
                    if below <= value <= above
                ]
                for above, below, rest, pairs in moving:
                    if below <= value <= above:
                        reduced = rest + [e.substitute(variable, value) for e in pairs]
                        terms.append(
                            (
                                tuple(sorted(e.sort_key() for e in reduced)),
                                _clause_log_probability(reduced, store),
                            )
                        )
                terms.sort(key=itemgetter(0))
                log_result = 0.0
                for __, log_p in terms:
                    log_result += log_p
            else:
                log_result = 0.0
                for __, above, below, log_p in fixed:
                    if below <= value <= above:
                        log_result += log_p
            total += weight * math.exp(log_result)
        # One branch node per value, as the general branch counts them; no
        # guard check runs inside the kernel, so trip points do not move.
        self.branch_count += len(values)
        self.split_values += len(values)
        return total


def adpll_probability(
    condition: Condition,
    store: DistributionStore,
    use_components: bool = True,
    use_memo: bool = True,
) -> float:
    """One-shot convenience wrapper around :class:`ADPLL`."""
    return ADPLL(store, use_components=use_components, use_memo=use_memo).probability(
        condition
    )
