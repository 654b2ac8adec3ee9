"""Tests for the distribution store and the three probability methods."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ctable import (
    Condition,
    Expression,
    Relation,
    Var,
    VariableConstraints,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)
from repro.errors import ResourceBudgetError
from repro.probability import (
    ADPLL,
    DistributionStore,
    EnumerationLimitExceeded,
    ProbabilityEngine,
    adaptive_approx_probability,
    adpll_probability,
    approx_probability,
    naive_probability,
)

V = (0, 0)
W = (1, 0)
U = (2, 0)


def uniform_store(domain=4, variables=(V, W, U), constraints=None):
    pmf = np.full(domain, 1.0 / domain)
    return DistributionStore({v: pmf.copy() for v in variables}, constraints)


class TestDistributionStore:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DistributionStore({V: np.array([0.5, 0.4])})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistributionStore({V: np.array([1.5, -0.5])})

    def test_pmf_lookup(self):
        store = uniform_store()
        assert store.pmf(V) == pytest.approx([0.25] * 4)
        with pytest.raises(KeyError):
            store.pmf((9, 9))

    def test_prob_var_greater_const(self):
        store = uniform_store()
        assert store.prob_expression(var_greater_const(0, 0, 1)) == pytest.approx(0.5)
        assert store.prob_expression(var_greater_const(0, 0, 3)) == 0.0

    def test_prob_const_greater_var(self):
        store = uniform_store()
        assert store.prob_expression(const_greater_var(2, 0, 0)) == pytest.approx(0.5)
        assert store.prob_expression(const_greater_var(0, 0, 0)) == 0.0
        assert store.prob_expression(const_greater_var(9, 0, 0)) == pytest.approx(1.0)

    def test_prob_var_greater_var_uniform(self):
        store = uniform_store()
        # P(X > Y) for iid uniform over 4 values: (1 - P(tie)) / 2 = 0.375.
        assert store.prob_expression(var_greater_var(0, 1, 0)) == pytest.approx(0.375)

    def test_prob_var_var_different_domains(self):
        store = DistributionStore(
            {V: np.full(6, 1 / 6), W: np.full(3, 1 / 3)}
        )
        # Brute force check.
        expected = sum(
            (1 / 6) * (1 / 3) for x in range(6) for y in range(3) if x > y
        )
        assert store.prob_expression(var_greater_var(0, 1, 0)) == pytest.approx(expected)

    def test_constraints_restrict_pmf(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        constraints.apply_answer(var_greater_const(0, 0, 1), Relation.GREATER)
        assert store.pmf(V) == pytest.approx([0, 0, 0.5, 0.5])
        assert store.support(V).tolist() == [2, 3]

    def test_expression_cache_respects_constraint_changes(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        e = var_greater_const(0, 0, 1)
        assert store.prob_expression(e) == pytest.approx(0.5)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        assert store.prob_expression(e) == pytest.approx(1.0)

    def test_sample_assignment(self, rng):
        store = uniform_store()
        sample = store.sample_assignment([V, W], rng)
        assert set(sample) == {V, W}
        assert all(0 <= v < 4 for v in sample.values())


class TestNaive:
    def test_constants(self):
        store = uniform_store()
        assert naive_probability(Condition.true(), store) == 1.0
        assert naive_probability(Condition.false(), store) == 0.0

    def test_single_expression(self):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        assert naive_probability(c, store) == pytest.approx(0.5)

    def test_enumeration_limit(self):
        store = uniform_store()
        c = Condition.of([[var_greater_var(0, 1, 0), var_greater_var(1, 2, 0)]])
        with pytest.raises(EnumerationLimitExceeded):
            naive_probability(c, store, max_assignments=10)

    def test_paper_example_o5(self, movies_ctable, movies_store):
        assert naive_probability(
            movies_ctable.condition(4), movies_store
        ) == pytest.approx(0.823, abs=5e-4)


class TestADPLL:
    def test_constants(self):
        store = uniform_store()
        assert adpll_probability(Condition.true(), store) == 1.0
        assert adpll_probability(Condition.false(), store) == 0.0

    def test_independent_product_rule(self):
        store = uniform_store()
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(1, 0, 0)]]
        )
        assert adpll_probability(c, store) == pytest.approx(0.5 * 0.75)

    def test_disjunctive_rule(self):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1), var_greater_const(1, 0, 1)]])
        assert adpll_probability(c, store) == pytest.approx(1 - 0.5 * 0.5)

    def test_correlated_clauses_branch(self):
        store = uniform_store()
        # Same variable in two clauses: Pr(X>1 and X>2) = Pr(X>2) = 0.25.
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(0, 0, 2)]]
        )
        assert adpll_probability(c, store) == pytest.approx(0.25)

    def test_paper_example_o5(self, movies_ctable, movies_store):
        assert adpll_probability(
            movies_ctable.condition(4), movies_store
        ) == pytest.approx(0.823, abs=5e-4)

    def test_ablation_flags_agree(self, movies_ctable, movies_store):
        condition = movies_ctable.condition(4)
        expected = adpll_probability(condition, movies_store)
        for components in (True, False):
            for memo in (True, False):
                value = ADPLL(
                    movies_store, use_components=components, use_memo=memo
                ).probability(condition)
                assert value == pytest.approx(expected)

    def test_branch_counter_advances(self, movies_ctable, movies_store):
        solver = ADPLL(movies_store)
        solver.probability(movies_ctable.condition(4))
        assert solver.branch_count > 0

    def test_memo_respects_constraint_updates(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(0, 0, 2)]]
        )
        assert solver.probability(c) == pytest.approx(0.25)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        assert solver.probability(c) == pytest.approx(1.0)


class TestApproxCount:
    def test_constants_skip_sampling(self):
        store = uniform_store()
        assert approx_probability(Condition.true(), store).probability == 1.0
        assert approx_probability(Condition.false(), store).probability == 0.0

    def test_converges_to_exact(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_var(0, 1, 0)], [var_greater_var(0, 2, 0)]])
        exact = naive_probability(c, store)
        estimate = approx_probability(c, store, n_samples=20_000, rng=rng)
        assert estimate.probability == pytest.approx(exact, abs=0.02)

    def test_interval_contains_estimate(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        estimate = approx_probability(c, store, n_samples=500, rng=rng)
        lo, hi = estimate.interval()
        assert lo <= estimate.probability <= hi

    def test_adaptive_stops_on_tolerance(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        estimate = adaptive_approx_probability(
            c, store, tolerance=0.05, batch_size=200, rng=rng
        )
        assert estimate.half_width < 0.05
        assert estimate.n_samples <= 50_000

    def test_rejects_bad_parameters(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        with pytest.raises(ValueError):
            approx_probability(c, store, n_samples=0)
        with pytest.raises(ValueError):
            adaptive_approx_probability(c, store, tolerance=0.0)

    def test_adaptive_keeps_sampling_on_rare_event(self):
        # Regression: the Wald half-width degenerates to ~1e-7 when the
        # first batch has zero hits, so the loop used to stop at
        # n == batch_size and confidently report Pr = 0 for rare events.
        # The Wilson half-width stays ~0.0038 at 0/500, above tolerance.
        store = uniform_store(domain=10_000, variables=(V,))
        c = Condition.of([[var_greater_const(0, 0, 9998)]])  # Pr = 1e-4
        estimate = adaptive_approx_probability(
            c, store, tolerance=0.002, batch_size=500,
            rng=np.random.default_rng(0),
        )
        assert estimate.n_samples > 500
        assert estimate.half_width > 1e-4
        lo, hi = estimate.interval()
        assert lo <= 1e-4 <= hi

    def test_no_rng_estimates_are_independent(self):
        # Regression: both entry points shared a per-call default_rng(0)
        # fallback, so repeated "independent" estimates were identical.
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])  # Pr = 0.5
        fixed = {
            approx_probability(c, store, n_samples=200).probability
            for _ in range(5)
        }
        assert len(fixed) > 1
        adaptive = {
            adaptive_approx_probability(
                c, store, tolerance=0.04, batch_size=200
            ).probability
            for _ in range(5)
        }
        assert len(adaptive) > 1


class TestEngine:
    def test_method_dispatch(self, movies_ctable, movies_store):
        condition = movies_ctable.condition(4)
        for method in ("adpll", "naive"):
            engine = ProbabilityEngine(movies_store, method=method)
            assert engine.probability(condition) == pytest.approx(0.823, abs=5e-4)
        approx_engine = ProbabilityEngine(
            movies_store, method="approx", approx_samples=20_000
        )
        assert approx_engine.probability(condition) == pytest.approx(0.823, abs=0.02)

    def test_unknown_method(self, movies_store):
        with pytest.raises(ValueError):
            ProbabilityEngine(movies_store, method="magic")

    def test_cache_hits(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        condition = movies_ctable.condition(4)
        engine.probability(condition)
        engine.probability(condition)
        assert engine.n_cache_hits == 1
        assert engine.n_computations == 1

    def test_cache_invalidation_is_selective(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        c1 = movies_ctable.condition(0)  # only Var(o5, *) variables
        c4 = movies_ctable.condition(3)  # mentions Var(o2, a2) too
        engine.probability(c1)
        engine.probability(c4)
        # Constrain a variable only c4 mentions.
        movies_ctable.constraints.apply_answer(
            var_greater_const(1, 1, 2), Relation.LESS
        )
        engine.probability(c1)  # unaffected -> cache hit
        assert engine.n_cache_hits == 1
        before = engine.n_computations
        engine.probability(c4)  # affected -> recompute
        assert engine.n_computations == before + 1

    def test_callable_interface(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        assert engine(Condition.true()) == 1.0


# ----------------------------------------------------------------------
# property: ADPLL (all flag combinations) agrees with Naive enumeration
# ----------------------------------------------------------------------
@st.composite
def condition_and_store(draw):
    variables = [(o, 0) for o in range(4)]
    domain = draw(st.integers(2, 4))
    pmfs = {}
    for v in variables:
        weights = np.array(
            [draw(st.integers(1, 5)) for __ in range(domain)], dtype=float
        )
        pmfs[v] = weights / weights.sum()
    n_clauses = draw(st.integers(1, 3))
    clauses = []
    for __ in range(n_clauses):
        clause = []
        for __ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["vc", "cv", "vv"]))
            v1 = draw(st.sampled_from(variables))
            if kind == "vc":
                clause.append(
                    var_greater_const(v1[0], v1[1], draw(st.integers(0, domain - 1)))
                )
            elif kind == "cv":
                clause.append(
                    const_greater_var(draw(st.integers(0, domain - 1)), v1[0], v1[1])
                )
            else:
                v2 = draw(st.sampled_from([v for v in variables if v != v1]))
                clause.append(Expression(Var(*v1), Var(*v2)))
        clauses.append(clause)
    return Condition.of(clauses), DistributionStore(pmfs)


class TestADPLLAgreesWithNaive:
    @given(condition_and_store())
    @settings(max_examples=150, deadline=None)
    def test_probabilities_match(self, pair):
        condition, store = pair
        exact = naive_probability(condition, store)
        assert adpll_probability(condition, store) == pytest.approx(exact, abs=1e-9)

    @given(condition_and_store())
    @settings(max_examples=60, deadline=None)
    def test_faithful_algorithm3_matches(self, pair):
        """The paper's plain Algorithm 3 (no components, no memo) is exact too."""
        condition, store = pair
        exact = naive_probability(condition, store)
        value = ADPLL(store, use_components=False, use_memo=False).probability(condition)
        assert value == pytest.approx(exact, abs=1e-9)


class TestBranchHeuristics:
    @pytest.mark.parametrize("heuristic", ["frequency", "min_domain", "first"])
    def test_all_heuristics_exact(self, heuristic, movies_ctable, movies_store):
        solver = ADPLL(movies_store, branch_heuristic=heuristic)
        assert solver.probability(movies_ctable.condition(4)) == pytest.approx(
            0.823, abs=5e-4
        )

    def test_unknown_heuristic_rejected(self, movies_store):
        with pytest.raises(ValueError):
            ADPLL(movies_store, branch_heuristic="magic")

    def test_absorption_flag_exact(self, movies_ctable, movies_store):
        solver = ADPLL(movies_store, use_absorption=True)
        assert solver.probability(movies_ctable.condition(4)) == pytest.approx(
            0.823, abs=5e-4
        )

    @given(condition_and_store())
    @settings(max_examples=60, deadline=None)
    def test_heuristics_agree_with_naive(self, pair):
        condition, store = pair
        exact = naive_probability(condition, store)
        for heuristic in ("frequency", "min_domain", "first"):
            value = ADPLL(
                store, branch_heuristic=heuristic, use_absorption=True
            ).probability(condition)
            assert value == pytest.approx(exact, abs=1e-9)


class TestCacheVersionRefresh:
    """Regression: revalidated cache entries must refresh their stored version.

    A cache entry surviving a ``variables_unchanged_since`` scan used to keep
    its original version, so every later hit at the new store version re-paid
    the per-variable scan.  After the fix the first revalidation writes the
    current version back and subsequent hits take the version-equality fast
    path -- observable as the scan count staying flat.
    """

    def counting_store(self, domain=4):
        constraints = VariableConstraints([domain])
        store = uniform_store(domain=domain, constraints=constraints)
        calls = []
        original = store.variables_unchanged_since

        def counted(variables, version):
            calls.append(tuple(variables))
            return original(variables, version)

        store.variables_unchanged_since = counted
        return store, constraints, calls

    def test_engine_cache_refreshes_version_after_scan(self):
        store, constraints, calls = self.counting_store()
        engine = ProbabilityEngine(store)
        condition = Condition.of([[var_greater_const(0, 0, 1)]])
        engine.probability(condition)
        # constrain an UNRELATED variable: version moves, pmfs of V don't
        constraints.apply_answer(var_greater_const(2, 0, 1), Relation.GREATER)
        calls.clear()
        engine.probability(condition)  # stale version -> one revalidation scan
        scans_first_hit = len(calls)
        assert scans_first_hit >= 1
        engine.probability(condition)  # refreshed version -> no further scan
        assert len(calls) == scans_first_hit
        assert engine.n_cache_hits == 2

    def test_adpll_memo_refreshes_version_after_scan(self):
        store, constraints, calls = self.counting_store()
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_const(2, 0, 1)],
                [var_greater_var(1, 0, 0)],
            ]
        )
        solver.probability(condition)
        constraints.apply_answer(var_greater_const(3, 0, 1), Relation.GREATER)
        calls.clear()
        solver.probability(condition)  # revalidates memo entries once
        scans_first = len(calls)
        calls.clear()
        solver.probability(condition)  # versions refreshed -> fewer scans
        assert len(calls) < max(scans_first, 1)

    def test_distribution_caches_refresh_version(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        expression = var_greater_const(0, 0, 1)
        store.pmf(V)
        store.prob_expression(expression)
        constraints.apply_answer(var_greater_const(2, 0, 1), Relation.GREATER)
        # revalidate once at the new version...
        store.pmf(V)
        store.prob_expression(expression)
        # ...then the cached entries must carry the current version
        assert store._pmf_cache[V][1] == store.version
        assert store._expr_cache[expression][1] == store.version


class TestADPLLMemoInvalidation:
    """Regression: memo entries must not survive store mutation mid-run."""

    def test_answer_between_calls_changes_result(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_const(2, 0, 2)],
                [var_greater_var(1, 2, 0)],
            ]
        )
        before = solver.probability(condition)
        assert before == pytest.approx(naive_probability(condition, store), abs=1e-9)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        after = solver.probability(condition)
        assert after == pytest.approx(naive_probability(condition, store), abs=1e-9)
        assert abs(after - before) > 0.05

    def test_repeated_answers_keep_memo_exact(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_var(1, 2, 0)],
                [var_greater_const(0, 0, 1), var_greater_const(2, 0, 1)],
            ]
        )
        answers = [
            (var_greater_const(0, 0, 0), Relation.GREATER),
            (var_greater_const(2, 0, 2), Relation.LESS),
            (var_greater_const(1, 0, 1), Relation.GREATER),
        ]
        for expression, relation in answers:
            constraints.apply_answer(expression, relation)
            assert solver.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )


class TestIndependentProbabilityPrecision:
    """The independent-clause product must survive tiny probabilities.

    A naive ``1 - prod(1 - p)`` loses all significant digits once ``p``
    drops near machine epsilon; the solver accumulates in log space
    (``log1p``/``expm1``/``fsum``), so results stay relatively accurate.
    The exact reference is computed in ``fractions.Fraction`` arithmetic.
    """

    def tiny_store(self, eps, n_vars):
        pmf = np.array([1.0 - eps, eps])
        pmf /= pmf.sum()
        return DistributionStore({(o, 0): pmf.copy() for o in range(n_vars)})

    def exact_fraction(self, store, clauses):
        from fractions import Fraction

        total = Fraction(1)
        for clause in clauses:
            none_true = Fraction(1)
            for expression in clause:
                p = store.prob_expression(expression)
                none_true *= Fraction(1) - Fraction(p)
            total *= Fraction(1) - none_true
        return total

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-15])
    def test_wide_clause_tiny_probabilities(self, eps):
        n_vars = 8
        store = self.tiny_store(eps, n_vars)
        clause = [var_greater_const(o, 0, 0) for o in range(n_vars)]
        condition = Condition.of([clause])
        exact = self.exact_fraction(store, [clause])
        value = adpll_probability(condition, store)
        assert exact > 0
        assert value == pytest.approx(float(exact), rel=1e-9)

    def test_many_independent_clauses(self):
        n_vars = 12
        store = self.tiny_store(1e-7, n_vars)
        clauses = [
            [var_greater_const(o, 0, 0) for o in range(start, start + 4)]
            for start in (0, 4, 8)
        ]
        condition = Condition.of(clauses)
        exact = self.exact_fraction(store, clauses)
        value = adpll_probability(condition, store)
        assert value == pytest.approx(float(exact), rel=1e-9)

    @given(
        st.floats(min_value=1e-15, max_value=0.5),
        st.integers(2, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_against_fraction_reference(self, eps, n_vars):
        store = self.tiny_store(eps, n_vars)
        clause = [var_greater_const(o, 0, 0) for o in range(n_vars)]
        condition = Condition.of([clause])
        exact = self.exact_fraction(store, [clause])
        value = adpll_probability(condition, store)
        assert value == pytest.approx(float(exact), rel=1e-9)

    def test_certain_expression_short_circuits(self):
        # p == 1.0 inside a clause must not reach log1p(-1)
        pmf = np.array([0.0, 1.0])
        store = DistributionStore({V: pmf, W: np.array([0.5, 0.5])})
        condition = Condition.of([[var_greater_const(0, 0, 0)]])
        assert adpll_probability(condition, store) == 1.0


# ----------------------------------------------------------------------
# the split kernel: single splits priced without residual conditions
# ----------------------------------------------------------------------
@st.composite
def single_split_case(draw):
    """A condition in which only the split variable ``V`` repeats.

    Expressions mix ``V``-vs-constant (constants at 0, the domain max and
    one past it), ``V``-vs-``w`` in both directions (in half the cases),
    and expressions over fresh variables; a clause of ``V``-vs-constant
    expressions alone is emptied by every value that fails it, and
    ``all_satisfied`` adds the always-true ``D > V`` to every clause.
    ``V``'s pmf may leave values out of the support.
    """
    domain = draw(st.integers(2, 5))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=domain, max_size=domain).filter(any)
    )
    pmfs = {V: np.array(weights, dtype=float) / sum(weights)}
    constants = st.sampled_from(sorted({0, 1, domain - 1, domain}))

    def fresh():
        obj = len(pmfs)
        size = draw(st.integers(2, 5))
        cells = np.array([draw(st.integers(1, 4)) for __ in range(size)], dtype=float)
        pmfs[(obj, 0)] = cells / cells.sum()
        return obj

    all_satisfied = draw(st.booleans())
    kinds = ["vc", "cv", "wc", "cw"]
    if draw(st.booleans()):  # else every clause's rest is fixed per split
        kinds += ["vw", "wv"]
    clauses = []
    for __ in range(draw(st.integers(1, 6))):
        clause = [const_greater_var(domain, 0, 0)] if all_satisfied else []
        for __ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(kinds))
            if kind == "vc":
                clause.append(var_greater_const(0, 0, draw(constants)))
            elif kind == "cv":
                clause.append(const_greater_var(draw(constants), 0, 0))
            elif kind == "vw":
                clause.append(var_greater_var(0, fresh(), 0))
            elif kind == "wv":
                clause.append(var_greater_var(fresh(), 0, 0))
            elif kind == "wc":
                clause.append(var_greater_const(fresh(), 0, draw(constants)))
            else:
                clause.append(const_greater_var(draw(constants), fresh(), 0))
        clauses.append(clause)
    condition = Condition.of(clauses)
    assume(not condition.is_constant and condition.variable_counts()[V] >= 2)
    return condition, DistributionStore(pmfs)


@st.composite
def conditions_and_store(draw):
    """Several conditions over four shared variables, any of them repeating."""
    variables = [(o, 0) for o in range(4)]
    domain = draw(st.integers(2, 4))
    pmfs = {}
    for v in variables:
        cells = np.array([draw(st.integers(0, 3)) for __ in range(domain)], dtype=float)
        cells[draw(st.integers(0, domain - 1))] += 1.0
        pmfs[v] = cells / cells.sum()
    conditions = []
    for __ in range(draw(st.integers(1, 4))):
        clauses = []
        for __ in range(draw(st.integers(1, 4))):
            clause = []
            for __ in range(draw(st.integers(1, 3))):
                obj = draw(st.sampled_from(variables))[0]
                kind = draw(st.sampled_from(["vc", "cv", "vv"]))
                if kind == "vc":
                    clause.append(var_greater_const(obj, 0, draw(st.integers(0, domain))))
                elif kind == "cv":
                    clause.append(const_greater_var(draw(st.integers(0, domain)), obj, 0))
                else:
                    other = draw(st.sampled_from([v for v in variables if v[0] != obj]))
                    clause.append(var_greater_var(obj, other[0], 0))
            clauses.append(clause)
        conditions.append(Condition.of(clauses))
    return conditions, DistributionStore(pmfs)


def general_branch_solver(store, **kwargs):
    """An ADPLL that never takes the split kernel: one residual per value."""
    solver = ADPLL(store, **kwargs)
    solver._single_split = lambda condition, variable: False
    return solver


def assert_split_equals_residual_sum(condition, store):
    """The kernel's ``_branch`` is ``sum w * Pr(residual)`` in support order."""
    solver = ADPLL(store)
    assert solver._single_split(condition, V)
    value = solver._branch(condition)
    reference = ADPLL(store)
    support = store.support(V)
    expected = 0.0
    for x, weight in zip(support.tolist(), store.pmf(V)[support].tolist()):
        expected += weight * reference._probability(condition.substitute(V, x))
    assert value == expected
    assert solver.split_values == solver.branch_count == len(support)
    worlds = np.prod([len(store.pmf(v)) for v in condition.variables()])
    if worlds <= 5000:  # keep the enumeration cheap
        assert value == pytest.approx(naive_probability(condition, store), abs=1e-9)


class TestSplitKernel:
    @given(single_split_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_sum_over_residuals_bit_for_bit(self, case):
        assert_split_equals_residual_sum(*case)

    def test_moving_clause_sums_in_residual_order(self):
        """``V > w`` re-sorts behind the fixed clauses once ``V`` is fixed;
        summing the clause logs in any other order rounds differently."""
        condition = Condition.of(
            [
                [var_greater_const(0, 0, 0)],
                [var_greater_var(0, 3, 0)],
                [var_greater_const(1, 0, 0)],
                [var_greater_const(2, 0, 0)],
            ]
        )
        store = DistributionStore(
            {
                V: np.array([0.0, 0.0, 1.0]),
                W: np.array([0.5, 0.5]),
                U: np.array([2.0, 1.0]) / 3.0,
                (3, 0): np.full(3, 1.0 / 3.0),
            }
        )
        assert_split_equals_residual_sum(condition, store)

    def test_fixed_clauses_sum_in_residual_order(self):
        """Dropping ``V``'s expressions reorders the fixed clauses."""
        condition = Condition.of(
            [
                [const_greater_var(2, 0, 0)],
                [var_greater_const(0, 0, 0)],
                [var_greater_const(0, 0, 1), var_greater_const(3, 0, 1)],
                [var_greater_const(1, 0, 0)],
                [var_greater_const(2, 0, 0)],
            ]
        )
        store = DistributionStore(
            {
                V: np.array([0.0, 1.0]),
                W: np.array([0.5, 0.5]),
                U: np.array([0.5, 0.5]),
                (3, 0): np.full(3, 1.0 / 3.0),
            }
        )
        assert_split_equals_residual_sum(condition, store)

    @given(conditions_and_store())
    @settings(max_examples=150, deadline=None)
    def test_probabilities_match_general_branch_bit_for_bit(self, case):
        conditions, store = case
        kernel = ADPLL(store)
        general = general_branch_solver(store)
        for condition in conditions:
            assert kernel.probability(condition) == general.probability(condition)
        assert kernel.branch_count == general.branch_count
        assert general.split_values == 0
        assert kernel.split_values <= kernel.branch_count

    @given(conditions_and_store(), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_node_budget_trips_where_general_branch_does(self, case, budget):
        """Same calls trip, with the same spent count, under a node budget."""
        conditions, store = case
        kernel = ADPLL(store, node_budget=budget)
        general = general_branch_solver(store, node_budget=budget)

        def outcomes(solver):
            seen = []
            for condition in conditions:
                try:
                    seen.append(("value", solver.probability(condition)))
                except ResourceBudgetError as err:
                    seen.append(("trip", err.spent, err.limit))
            return seen

        assert outcomes(kernel) == outcomes(general)
        assert kernel.guard_trips == general.guard_trips
        assert kernel.branch_count == general.branch_count

    def test_counts_one_branch_per_value(self):
        condition = Condition.of(
            [
                [var_greater_const(0, 0, 0), var_greater_const(1, 0, 2)],
                [const_greater_var(3, 0, 0), var_greater_var(2, 0, 0)],
            ]
        )
        solver = ADPLL(uniform_store())
        value = solver.probability(condition)
        assert solver.branch_count == solver.split_values == 4
        assert value == pytest.approx(
            naive_probability(condition, uniform_store()), abs=1e-12
        )


class TestPmfValidation:
    """The store's validation accepts and rejects exactly what the plain
    per-variable numpy checks do, with the same messages."""

    @staticmethod
    def reference(base):
        out = {}
        for variable, pmf in base.items():
            pmf = np.asarray(pmf, dtype=np.float64)
            if pmf.ndim != 1 or pmf.size == 0:
                raise ValueError("pmf of %s must be a non-empty vector" % (variable,))
            if (pmf < 0).any():
                raise ValueError("pmf of %s has negative entries" % (variable,))
            total = pmf.sum()
            if not np.isclose(total, 1.0, atol=1e-6):
                raise ValueError("pmf of %s sums to %r, not 1" % (variable, total))
            out[variable] = pmf / total
        return out

    cells = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from(
            [0.0, -0.0, -1e-12, -0.5, 1.0 + 1e-5, 1.0 + 1.2e-5, float("nan"),
             float("inf"), -float("inf")]
        ),
    )

    @given(
        st.lists(
            st.one_of(
                st.lists(cells, min_size=0, max_size=4),
                st.integers(1, 4).map(lambda n: [1.0 / n] * n),
                st.just([[1.0]]),
            ),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_per_variable_checks(self, pmfs):
        base = {(i, 0): np.array(pmf, dtype=np.float64) for i, pmf in enumerate(pmfs)}
        try:
            expected = self.reference(base)
        except ValueError as err:
            with pytest.raises(ValueError) as excinfo:
                DistributionStore(base)
            assert str(excinfo.value) == str(err)
            return
        store = DistributionStore(base)
        assert store._base.keys() == expected.keys()
        for variable, pmf in expected.items():
            assert np.array_equal(store.pmf(variable), pmf)

    def test_nan_with_negative_reports_negative(self):
        with pytest.raises(ValueError, match="negative entries"):
            DistributionStore({V: np.array([0.5, 0.5]), W: np.array([np.nan, -0.5, 1.5])})

    def test_tolerance_edge(self):
        DistributionStore({V: np.array([0.5, 0.5 + 1.0e-5])})
        with pytest.raises(ValueError, match="sums to"):
            DistributionStore({V: np.array([0.5, 0.5 + 1.2e-5])})
