"""Tests for the ML regression stack and the NSGA-II/MCDM optimizer."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import moo_reference
from repro.ml import (
    KFold,
    LinearRegression,
    PolynomialFeatures,
    Ridge,
    StandardScaler,
    cross_val_score,
    make_polynomial_regression,
    mean_absolute_error,
    r2_score,
    root_mean_squared_error,
    train_test_split,
)
from repro.moo import (
    NSGA2,
    Problem,
    Termination,
    crowding_by_rank,
    crowding_distance,
    fast_non_dominated_sort,
    front_ranks,
    pareto_front_mask,
    pseudo_weights,
    select_by_preference,
)
from repro.scheduler.formulation import (
    SchedulingInput,
    SchedulingProblem,
    evaluate_population,
    evaluate_reference,
    pack_feasible,
    repair_population,
    repair_reference,
)

_settings = settings(max_examples=40, deadline=None, derandomize=True)


def _random_input(rng, n, q, density=0.7):
    """A random feasible scheduling instance (every job fits somewhere)."""
    feas = rng.random((n, q)) < density
    feas[~feas.any(axis=1), 0] = True
    return SchedulingInput(
        fidelity=rng.random((n, q)) * 0.4 + 0.6,
        exec_seconds=rng.random((n, q)) * 100 + 1,
        waiting_seconds=rng.random(q) * 50,
        feasible=feas,
    )


class TestLinearModels:
    def test_ols_exact_on_linear_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 3.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(3.0)

    def test_ridge_shrinks_towards_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([5.0, -5.0]) + rng.normal(0, 0.1, 50)
        small = Ridge(alpha=1e-6).fit(X, y)
        big = Ridge(alpha=1e4).fit(X, y)
        assert np.linalg.norm(big.coef_) < np.linalg.norm(small.coef_)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones((5, 2)), np.ones(4))


class TestFeatures:
    def test_polynomial_feature_count(self):
        poly = PolynomialFeatures(degree=2)
        out = poly.fit_transform(np.ones((4, 3)))
        assert out.shape[1] == 3 + 6  # 3 linear + C(3+1,2)=6 quadratic

    def test_polynomial_values(self):
        X = np.array([[2.0, 3.0]])
        out = PolynomialFeatures(degree=2).fit_transform(X)
        assert set(np.round(out[0], 6)) == {2.0, 3.0, 4.0, 6.0, 9.0}

    def test_bias_column(self):
        out = PolynomialFeatures(degree=1, include_bias=True).fit_transform(
            np.ones((2, 1))
        )
        assert np.allclose(out[:, 0], 1.0)

    def test_scaler_standardizes(self):
        rng = np.random.default_rng(2)
        X = rng.normal(5.0, 3.0, size=(200, 2))
        out = StandardScaler().fit_transform(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_scaler_constant_column_safe(self):
        X = np.ones((10, 1))
        out = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(out))


class TestMetricsAndCV:
    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == pytest.approx(1.0)
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_mae_rmse(self):
        assert mean_absolute_error([0, 0], [1, -1]) == pytest.approx(1.0)
        assert root_mean_squared_error([0, 0], [3, 4]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_kfold_partitions(self):
        folds = list(KFold(n_splits=4, seed=1).split(20))
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))
        for train, test in folds:
            assert set(train) & set(test) == set()

    def test_kfold_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_train_test_split_sizes(self):
        X = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.3, seed=0)
        assert len(Xte) == 3 and len(Xtr) == 7

    def test_cross_val_score_on_learnable_problem(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 2))
        y = 1.0 + 2 * X[:, 0] - X[:, 1] ** 2
        scores = cross_val_score(
            lambda: make_polynomial_regression(2), X, y, n_splits=4
        )
        assert scores.mean() > 0.99

    def test_pipeline_getitem(self):
        pipe = make_polynomial_regression(2)
        assert isinstance(pipe["poly"], PolynomialFeatures)
        with pytest.raises(KeyError):
            pipe["nope"]


class _Biobj(Problem):
    """min (x0/u, 1 - x0/u + spread): simple convex front on integers."""

    def __init__(self, n=6, upper=50):
        super().__init__(n, 2, 0, upper)
        self.u = upper

    def evaluate(self, X):
        f1 = X[:, 0] / self.u
        rest = X[:, 1:].mean(axis=1) / self.u
        f2 = 1.0 - f1 + rest
        return np.stack([f1, f2], axis=1)


class TestSorting:
    def test_pareto_mask(self):
        F = np.array([[1, 5], [2, 2], [5, 1], [4, 4]])
        mask = pareto_front_mask(F)
        assert mask.tolist() == [True, True, True, False]

    def test_non_dominated_sort_fronts(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(F)
        assert [list(f) for f in fronts] == [[0], [1], [2]]

    def test_crowding_extremes_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])


class TestNSGA2:
    def test_converges_to_front(self):
        res = NSGA2(pop_size=32, seed=0).minimize(
            _Biobj(), Termination(max_generations=40)
        )
        # On the true front the rest-genes are ~0, so f1 + f2 ~ 1.
        sums = res.F.sum(axis=1)
        assert np.mean(sums) < 1.1

    def test_front_is_mutually_non_dominated(self):
        res = NSGA2(pop_size=32, seed=1).minimize(
            _Biobj(), Termination(max_generations=20)
        )
        assert pareto_front_mask(res.F).all()

    def test_termination_tolerance_window(self):
        term = Termination(max_generations=500, tol=0.5, window=3)
        res = NSGA2(pop_size=16, seed=2).minimize(_Biobj(n=4), term)
        assert res.reason in ("tolerance_window", "max_generations")
        assert res.generations < 500 or res.reason == "max_generations"

    def test_pop_size_validation(self):
        with pytest.raises(ValueError):
            NSGA2(pop_size=5)

    def test_respects_bounds(self):
        res = NSGA2(pop_size=16, seed=3).minimize(
            _Biobj(), Termination(max_generations=10)
        )
        assert res.X.min() >= 0 and res.X.max() <= 50

    def test_minimize_pure_across_calls(self):
        """Same (problem, termination, seed) -> bit-identical results on
        repeated calls of the *same* optimizer instance: minimize carries
        no hidden RNG state between cycles (the parallel-engine contract)."""
        algo = NSGA2(pop_size=16, seed=7)
        a = algo.minimize(_Biobj(), Termination(max_generations=12))
        b = algo.minimize(_Biobj(), Termination(max_generations=12))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.F, b.F)
        assert a.generations == b.generations
        # An explicit per-call seed overrides the constructor stream.
        c = algo.minimize(
            _Biobj(), Termination(max_generations=12), seed=99
        )
        assert not np.array_equal(a.F, c.F) or not np.array_equal(a.X, c.X)

    def test_truncate_reuses_selection_fronts_bit_identical(self):
        """The fast truncation (ranks/crowding derived from the fronts
        already computed) must match the old recompute-from-scratch
        version bit for bit, across seeds and generations."""

        class ReferenceNSGA2(NSGA2):
            def _truncate(self, X, F):
                fronts = fast_non_dominated_sort(F)
                chosen = []
                count = 0
                for front in fronts:
                    if count + len(front) <= self.pop_size:
                        chosen.append(front)
                        count += len(front)
                    else:
                        crowd = crowding_distance(F[front])
                        order = np.argsort(-crowd, kind="stable")
                        chosen.append(front[order[: self.pop_size - count]])
                        count = self.pop_size
                        break
                idx = np.concatenate(chosen)
                Xs, Fs = X[idx], F[idx]
                rank, crowd = self._rank_and_crowd(Fs)
                return Xs, Fs, rank, crowd

        for seed in range(5):
            fast = NSGA2(pop_size=16, seed=seed).minimize(
                _Biobj(), Termination(max_generations=15)
            )
            ref = ReferenceNSGA2(pop_size=16, seed=seed).minimize(
                _Biobj(), Termination(max_generations=15)
            )
            assert np.array_equal(fast.X, ref.X)
            assert np.array_equal(fast.F, ref.F)
            assert fast.generations == ref.generations
            assert fast.evaluations == ref.evaluations


class TestMCDM:
    def test_pseudo_weights_rows_sum_to_one(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        w = pseudo_weights(F)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_extreme_selection(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        # Strong priority on objective 0 picks the solution minimizing it.
        idx = select_by_preference(F, (0.99, 0.01))
        assert idx == 0
        idx = select_by_preference(F, (0.01, 0.99))
        assert idx == 2

    def test_balanced_picks_middle(self):
        F = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
        assert select_by_preference(F, "balanced") == 1

    def test_named_preferences(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        for name in ("jct", "balanced", "fidelity"):
            select_by_preference(F, name)
        with pytest.raises(KeyError):
            select_by_preference(F, "nope")

    def test_preference_validation(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            select_by_preference(F, (0.9, 0.9))
        with pytest.raises(ValueError):
            select_by_preference(F, (1.0,))

    def test_degenerate_objective(self):
        F = np.array([[1.0, 5.0], [2.0, 5.0]])
        idx = select_by_preference(F, "balanced")
        assert idx in (0, 1)


class TestVectorizedSorting:
    """front_ranks / crowding_by_rank vs the per-front reference loops."""

    def test_front_ranks_match_peeled_fronts(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 60))
            F = rng.random((n, 2))
            if seed % 3 == 0 and n > 3:  # duplicates exercise ties
                F[: n // 2] = F[n - n // 2 :][::-1]
            rank = front_ranks(F)
            for r, front in enumerate(moo_reference.fronts(F)):
                assert np.all(rank[front] == r)
            assert rank.min() == 0

    def test_crowding_by_rank_matches_per_front(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 60))
            m = 2 if seed % 2 else 3
            F = rng.random((n, m))
            # The library ranks two objectives only; m = 3 takes its
            # ranks from the oracle, which crowding_by_rank accepts.
            rank = (front_ranks if m == 2 else moo_reference.front_ranks)(F)
            crowd = crowding_by_rank(F, rank)
            for front in moo_reference.fronts(F):
                assert np.array_equal(
                    crowd[front], crowding_distance(F[front])
                )


#: Rounded grid values, ``-0.0`` included, so ties and duplicates abound.
_GRID = [-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def tie_heavy_objectives(draw):
    """Bi-objective matrices built to stress every tie rule of the sweep."""
    n = draw(st.integers(1, 200))
    F = draw(hnp.arrays(np.float64, (n, 2), elements=st.sampled_from(_GRID)))
    shape = draw(st.sampled_from(["grid", "duplicates", "equal_f1", "equal_f2"]))
    if shape == "duplicates":
        F = F[draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))]
    elif shape == "equal_f1":
        F[:, 0] = F[0, 0]
    elif shape == "equal_f2":
        F[:, 1] = F[0, 1]
    return F


class TestSweepAgainstOracle:
    """The sort-and-sweep kernels vs the O(n²) domination-matrix oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_heavy_objectives())
    def test_tie_heavy_ranks_and_crowding_bit_identical(self, F):
        rank, crowd = moo_reference.rank_and_crowd(F)
        got = front_ranks(F)
        assert np.array_equal(got, rank)
        assert np.array_equal(crowding_by_rank(F, got), crowd)
        assert np.array_equal(
            pareto_front_mask(F), moo_reference.pareto_front_mask(F)
        )

    def test_infinite_objectives_rank_like_the_oracle(self):
        inf = np.inf
        F = np.array([[inf, 0.0], [0.0, inf], [inf, inf], [1.0, 1.0],
                      [-inf, 5.0], [inf, inf], [2.0, -inf]])
        assert np.array_equal(front_ranks(F), moo_reference.front_ranks(F))

    @pytest.mark.parametrize("fn", [front_ranks, pareto_front_mask])
    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (5,), (2, 2, 2)])
    def test_rejects_non_biobjective_shapes(self, fn, shape):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            fn(np.zeros(shape))

    @pytest.mark.parametrize("fn", [front_ranks, pareto_front_mask])
    def test_rejects_nan(self, fn):
        F = np.array([[0.0, 1.0], [np.nan, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            fn(F)

    def test_empty_population(self):
        F = np.zeros((0, 2))
        assert front_ranks(F).shape == (0,)
        assert pareto_front_mask(F).shape == (0,)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scheduling_run_identical_to_reference_loops(self, seed):
        """A benchmark-shaped NSGA-II run (pop 64, 25 jobs, 4 QPUs) is
        bit-identical with the kernels and with every NSGA-II hot path
        swapped back to the reference loops."""
        data = _random_input(np.random.default_rng(seed), 25, 4)

        def run():
            return NSGA2(pop_size=64, seed=seed).minimize(
                SchedulingProblem(data, seed=seed),
                Termination(max_generations=40),
            )

        fast = run()
        with moo_reference.nsga_reference_patch():
            ref = run()
        assert np.array_equal(fast.X, ref.X)
        assert np.array_equal(fast.F, ref.F)
        assert fast.generations == ref.generations
        assert fast.evaluations == ref.evaluations


class TestPopulationKernels:
    """The flat evaluate/repair kernels are bit-identical to the scalar
    per-individual reference loops — values AND consumed RNG stream."""

    def test_pack_feasible_matches_where(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = _random_input(
                rng, int(rng.integers(1, 40)), int(rng.integers(2, 12))
            )
            flat, offsets, counts = pack_feasible(data.feasible)
            assert flat.shape == (int(data.feasible.sum()),)
            for i in range(data.num_jobs):
                assert np.array_equal(
                    flat[offsets[i] : offsets[i] + counts[i]],
                    np.where(data.feasible[i])[0],
                )

    def test_evaluate_matches_reference_randomized(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 120))
            q = int(rng.integers(2, 24))
            pop = int(rng.integers(1, 96))
            data = _random_input(rng, n, q)
            X = rng.integers(0, q, size=(pop, n))
            assert np.array_equal(
                evaluate_population(data, X), evaluate_reference(data, X)
            )

    def test_repair_matches_reference_and_stream(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 80))
            q = int(rng.integers(2, 16))
            pop = int(rng.integers(1, 48))
            data = _random_input(rng, n, q, density=0.5)
            X = rng.integers(0, q, size=(pop, n))
            r_kernel = np.random.default_rng(seed + 1)
            r_ref = np.random.default_rng(seed + 1)
            out_kernel = repair_population(data, X.copy(), r_kernel)
            out_ref = repair_reference(data, X.copy(), r_ref)
            assert np.array_equal(out_kernel, out_ref)
            assert data.feasible[
                np.arange(n)[None, :], out_kernel
            ].all()
            # Identical bit-stream position afterwards: batched draws
            # consumed exactly what the scalar loop would have.
            assert (
                r_kernel.bit_generator.state == r_ref.bit_generator.state
            )

    @_settings
    @given(
        pop=st.integers(1, 24),
        n=st.integers(1, 32),
        q=st.integers(2, 9),
        density=st.floats(0.15, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_kernels_equal_references_property(
        self, pop, n, q, density, seed
    ):
        """Property form: any (pop, width, feasibility-mask) instance —
        flat kernels == scalar references, bit for bit."""
        rng = np.random.default_rng(seed)
        data = _random_input(rng, n, q, density=density)
        X = rng.integers(0, q, size=(pop, n))
        assert np.array_equal(
            evaluate_population(data, X), evaluate_reference(data, X)
        )
        r1 = np.random.default_rng(seed ^ 0x5EED)
        r2 = np.random.default_rng(seed ^ 0x5EED)
        assert np.array_equal(
            repair_population(data, X.copy(), r1),
            repair_reference(data, X.copy(), r2),
        )
        assert r1.bit_generator.state == r2.bit_generator.state


class TestWarmStartProblem:
    """Warm-row validation and fill semantics in SchedulingProblem."""

    def _data(self, n=8, q=4, seed=0, density=1.0):
        return _random_input(np.random.default_rng(seed), n, q, density)

    def test_warm_rows_seed_population(self):
        data = self._data()
        warm = np.full((3, data.num_jobs), 2, dtype=np.int64)
        prob = SchedulingProblem(data, seed=1, warm=warm)
        X = prob.sample(10, np.random.default_rng(5))
        assert np.array_equal(X[2:5], warm)

    def test_missing_genes_fill_cycles_extremes_and_random(self):
        data = self._data()
        cold = SchedulingProblem(data, seed=1)
        Xc = cold.sample(10, np.random.default_rng(5))
        warm = np.full((3, data.num_jobs), -1, dtype=np.int64)
        warm[:, 0] = 1  # one carried gene per row, rest missing
        prob = SchedulingProblem(data, seed=1, warm=warm)
        X = prob.sample(10, np.random.default_rng(5))
        # Row modes cycle: fidelity extreme, JCT extreme, random slot.
        for k, base in enumerate((Xc[0], Xc[1], Xc[2 + 2])):
            assert X[2 + k, 0] == 1
            assert np.array_equal(X[2 + k, 1:], base[1:])

    def test_warm_never_consumes_rng(self):
        data = self._data()
        warm = np.zeros((2, data.num_jobs), dtype=np.int64)
        cold_rng = np.random.default_rng(5)
        warm_rng = np.random.default_rng(5)
        Xc = SchedulingProblem(data, seed=1).sample(8, cold_rng)
        Xw = SchedulingProblem(data, seed=1, warm=warm).sample(8, warm_rng)
        # Extremes and rows past the warm block are untouched...
        assert np.array_equal(Xc[:2], Xw[:2])
        assert np.array_equal(Xc[4:], Xw[4:])
        # ...and the stream position is identical afterwards.
        assert (
            cold_rng.bit_generator.state == warm_rng.bit_generator.state
        )

    def test_warm_validation(self):
        data = self._data(density=0.6)
        with pytest.raises(ValueError, match="warm-start rows"):
            SchedulingProblem(data, warm=np.zeros((2, 3), dtype=np.int64))
        out_of_range = np.full((1, data.num_jobs), data.num_qpus)
        with pytest.raises(ValueError, match="out of QPU range"):
            SchedulingProblem(data, warm=out_of_range)
        infeasible = np.zeros((1, data.num_jobs), dtype=np.int64)
        bad_job = int(np.flatnonzero(~data.feasible[:, 0])[0])
        infeasible[0, bad_job] = 0
        with pytest.raises(ValueError, match="feasible or -1"):
            SchedulingProblem(data, warm=infeasible)

    def test_all_missing_rows_dropped(self):
        data = self._data()
        warm = np.full((3, data.num_jobs), -1, dtype=np.int64)
        warm[1, 0] = 2  # only row 1 carries anything
        prob = SchedulingProblem(data, seed=1, warm=warm)
        assert prob._warm is not None and len(prob._warm) == 1
        empty = np.full((2, data.num_jobs), -1, dtype=np.int64)
        assert SchedulingProblem(data, seed=1, warm=empty)._warm is None

    def test_warm_capped_by_population(self):
        data = self._data()
        warm = np.full((20, data.num_jobs), 1, dtype=np.int64)
        prob = SchedulingProblem(data, seed=1, warm=warm)
        X = prob.sample(6, np.random.default_rng(5))
        assert np.array_equal(X[2:], warm[:4])
