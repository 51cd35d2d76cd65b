"""Bit-identity of the fast course kernel and the factory build.

These are the golden guarantees of the oracle factory: for the same
seeds it must reproduce the seed serial path **exactly** — not within
tolerance — across kernels, worker counts and cache states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_titanic
from repro.market.bundle import FeatureBundle, sample_bundles
from repro.market.oracle import PerformanceOracle
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import quantile_bin
from repro.oracle_factory import FastForestCourse, SharedDesigns, build_oracle
from repro.oracle_factory import course as course_module
from repro.utils.rng import spawn
from repro.vfl import Channel, run_vfl

PARAMS = {"n_estimators": 6, "max_depth": 6}


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(500, seed=0).prepare(seed=0)


@pytest.fixture(scope="module")
def shared(dataset):
    return SharedDesigns(dataset, max_bins=32)


class TestFastCourseKernel:
    def _forest_proba(self, dataset, bundle, seed, **kw):
        Xtr = np.hstack([dataset.task_train, dataset.data_train[:, list(bundle)]])
        Xte = np.hstack([dataset.task_test, dataset.data_test[:, list(bundle)]])
        rf = RandomForestClassifier(
            kw.get("n_estimators", 6),
            max_depth=kw.get("max_depth", 6),
            min_samples_leaf=kw.get("min_samples_leaf", 2),
            max_features=kw.get("max_features", "sqrt"),
            bootstrap=kw.get("bootstrap", True),
            rng=spawn(seed, "course", tuple(bundle)),
        )
        rf.fit(Xtr, dataset.y_train.astype(np.float64))
        return rf.predict_proba(Xte)

    def _fast_proba(self, dataset, shared, bundle, seed, **kw):
        course = FastForestCourse(
            shared.course_design(bundle),
            shared.y_train,
            n_estimators=kw.get("n_estimators", 6),
            max_depth=kw.get("max_depth", 6),
            min_samples_leaf=kw.get("min_samples_leaf", 2),
            max_features=kw.get("max_features", "sqrt"),
            bootstrap=kw.get("bootstrap", True),
            rng=spawn(seed, "course", tuple(bundle)),
        )
        course.fit()
        return course.predict_proba_binned(shared.course_test_codes(bundle))

    def test_probabilities_equal_centralized_forest(self, dataset, shared):
        for seed, bundle in [(0, (0, 2, 5)), (1, (1,)), (7, tuple(range(dataset.d_data)))]:
            p_fast = self._fast_proba(dataset, shared, bundle, seed)
            p_ref = self._forest_proba(dataset, bundle, seed)
            np.testing.assert_array_equal(p_fast, p_ref)

    def test_equal_without_feature_subsampling(self, dataset, shared):
        kw = {"max_features": None, "bootstrap": False}
        p_fast = self._fast_proba(dataset, shared, (0, 1, 2), 3, **kw)
        p_ref = self._forest_proba(dataset, (0, 1, 2), 3, **kw)
        np.testing.assert_array_equal(p_fast, p_ref)

    def test_equal_across_depth_and_leaf_params(self, dataset, shared):
        kw = {"max_depth": 3, "min_samples_leaf": 5, "n_estimators": 4}
        p_fast = self._fast_proba(dataset, shared, (2, 4), 11, **kw)
        p_ref = self._forest_proba(dataset, (2, 4), 11, **kw)
        np.testing.assert_array_equal(p_fast, p_ref)


def _reference_proba(X_train, y, X_test, rng, params):
    """The centralised forest's probabilities: the kernel's oracle.

    The seed tree rejects ``max_depth=0``; that forest is its roots
    alone, so each tree predicts its bootstrap rows' positive rate,
    averaged in tree order like ``RandomForestClassifier``.
    """
    if params["max_depth"] > 0:
        rf = RandomForestClassifier(rng=rng, **params)
        return rf.fit(X_train, y).predict_proba(X_test)
    n = y.shape[0]
    acc = np.zeros(X_test.shape[0])
    for t in range(params["n_estimators"]):
        rows = (
            spawn(rng, "tree", t).integers(0, n, size=n)
            if params["bootstrap"]
            else np.arange(n)
        )
        acc += int((y[rows] != 0).sum()) / n
    return acc / params["n_estimators"]


def _kernel(X_train, y, X_test, rng, params):
    """A fitted wave-kernel course and its probabilities on ``X_test``."""
    design = quantile_bin(X_train, max_bins=32)
    test_codes = np.stack(
        [np.searchsorted(e, X_test[:, j], side="left")
         for j, e in enumerate(design.edges)],
        axis=1,
    )
    course = FastForestCourse(design, y, rng=rng, **params).fit()
    return course, course.predict_proba_binned(test_codes)


def _assert_kernel_matches_forest(X_train, y, X_test, seed, **params):
    params = {
        "n_estimators": 6, "max_depth": 6, "min_samples_leaf": 2,
        "max_features": "sqrt", "bootstrap": True, **params,
    }
    course, p_fast = _kernel(X_train, y, X_test, spawn(seed, "course"), params)
    p_ref = _reference_proba(X_train, y, X_test, spawn(seed, "course"), params)
    np.testing.assert_array_equal(p_fast, p_ref)
    return course


class TestWaveKernelEquivalence:
    """The lockstep wave kernel equals the per-tree seed forest exactly,
    whatever the forest shape and however unevenly its trees grow."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n_estimators=st.integers(1, 6),
        max_depth=st.integers(0, 10),
        min_samples_leaf=st.integers(1, 8),
        bootstrap=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_probabilities_equal_forest(
        self, dataset, data, n_estimators, max_depth, min_samples_leaf,
        bootstrap, seed,
    ):
        bundle = data.draw(
            st.none()
            | st.lists(
                st.integers(0, dataset.d_data - 1), min_size=1, unique=True
            ).map(sorted),
            label="bundle",
        )
        X_train, X_test = dataset.task_train, dataset.task_test
        if bundle is not None:
            X_train = np.hstack([X_train, dataset.data_train[:, bundle]])
            X_test = np.hstack([X_test, dataset.data_test[:, bundle]])
        max_features = data.draw(
            st.sampled_from(["sqrt", None])
            | st.integers(1, X_train.shape[1]),
            label="max_features",
        )
        _assert_kernel_matches_forest(
            X_train, dataset.y_train.astype(np.float64), X_test, seed,
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            bootstrap=bootstrap,
        )

    @pytest.mark.parametrize("max_features", ["sqrt", None, 1])
    def test_constant_columns(self, max_features):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 4))
        X[:, 1] = 2.5  # one constant column among varied ones
        y = (X[:, 0] + 0.3 * rng.normal(size=120) > 0).astype(np.float64)
        _assert_kernel_matches_forest(
            X[:80], y[:80], X[80:], 5, max_features=max_features
        )
        # Every column constant: a single bin, so no tree can split.
        course = _assert_kernel_matches_forest(
            np.ones((80, 3)), y[:80], np.ones((40, 3)), 5,
            max_features=max_features,
        )
        assert course.design.n_bins == 1
        assert all(tree[0].shape[0] == 1 for tree in course.trees_)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_training_set(self, label):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(90, 3))
        y = np.full(60, label)
        course = _assert_kernel_matches_forest(X[:60], y, X[60:], 1)
        assert all(tree[0].shape[0] == 1 for tree in course.trees_)
        np.testing.assert_array_equal(
            course.predict_proba_binned(np.zeros((5, 3), dtype=np.int64)),
            np.full(5, label),
        )

    def test_trees_finishing_in_very_different_waves(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 5))
        # One positive row: bootstraps that miss it have a pure root and
        # never join a wave, the others keep splitting.
        y = np.zeros(70)
        y[13] = 1.0
        course = _assert_kernel_matches_forest(
            X[:70], y, X[70:], 2, n_estimators=12, max_depth=10,
            min_samples_leaf=1, max_features=None,
        )
        sizes = [tree[0].shape[0] for tree in course.trees_]
        assert min(sizes) == 1 and max(sizes) >= 5, sizes
        # Feature 0 separates the labels: a tree that draws it at the
        # root is done after one wave, one that draws noise grows deep.
        y = (X[:70, 0] > 0).astype(np.float64)
        course = _assert_kernel_matches_forest(
            X[:70], y, X[70:], 2, n_estimators=12, max_depth=10,
            min_samples_leaf=1, max_features=1,
        )
        sizes = [tree[0].shape[0] for tree in course.trees_]
        assert min(sizes) == 3 and max(sizes) >= 25, sizes


    def test_capped_waves_defer_trees(self, dataset, monkeypatch):
        """A wave that cannot hold one node of every tree leaves the
        rest for later waves; no tree's own order changes."""
        monkeypatch.setattr(course_module, "_WAVE_CELLS", 2000)
        X_train = np.hstack([dataset.task_train, dataset.data_train[:, [0, 3]]])
        X_test = np.hstack([dataset.task_test, dataset.data_test[:, [0, 3]]])
        for max_features in ("sqrt", None):
            _assert_kernel_matches_forest(
                X_train, dataset.y_train.astype(np.float64), X_test, 4,
                max_depth=8, max_features=max_features,
            )


class TestPrebinnedProtocolPath:
    def test_run_vfl_with_shared_designs_identical(self, dataset, shared):
        """The federated protocol accepts pre-binned designs and is
        unchanged by them — the factory's shared slices are exact."""
        bundle = (0, 3, 6)
        plain = run_vfl(dataset, bundle, seed=5, m0=0.6)
        pre = run_vfl(
            dataset,
            bundle,
            seed=5,
            m0=0.6,
            task_design=shared.task_design(),
            data_design=shared.data_design(bundle),
        )
        assert pre.performance_joint == plain.performance_joint
        assert pre.channel_stats == plain.channel_stats

    def test_mlp_rejects_designs(self, dataset, shared):
        with pytest.raises(ValueError, match="random_forest"):
            run_vfl(
                dataset, (0,), base_model="mlp", seed=0, m0=0.6,
                task_design=shared.task_design(),
            )

    def test_mismatched_design_rejected(self, dataset, shared):
        with pytest.raises(ValueError, match="column count"):
            run_vfl(
                dataset, (0, 1), seed=0, m0=0.6,
                data_design=shared.data_design((0, 1, 2)),
            )


class TestFactoryEquivalence:
    @pytest.fixture(scope="class")
    def catalogue(self, dataset):
        return sample_bundles(
            dataset.d_data, 6, rng=spawn(0, "cat"), min_size=1
        )

    @pytest.fixture(scope="class")
    def reference(self, dataset, catalogue):
        return PerformanceOracle.build_serial_reference(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2
        )

    def test_serial_factory_bit_identical(self, dataset, catalogue, reference):
        oracle, report = build_oracle(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2, jobs=1
        )
        assert oracle.gains() == reference.gains()
        assert oracle.isolated == reference.isolated
        assert report.courses_run == 2 * (len(catalogue) + 1)

    def test_parallel_factory_bit_identical(self, dataset, catalogue, reference):
        oracle, report = build_oracle(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2, jobs=2
        )
        assert oracle.gains() == reference.gains()
        assert oracle.isolated == reference.isolated
        assert report.jobs == 2

    def test_default_build_delegates_to_factory(self, dataset, catalogue, reference):
        oracle = PerformanceOracle.build(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2
        )
        assert oracle.gains() == reference.gains()
        assert oracle.build_report.courses_run == 2 * (len(catalogue) + 1)

    def test_single_bundle_single_repeat(self, dataset):
        bundles = [FeatureBundle.of([0, 1])]
        ref = PerformanceOracle.build_serial_reference(
            dataset, bundles, model_params=PARAMS, seed=42
        )
        oracle, _ = build_oracle(dataset, bundles, model_params=PARAMS, seed=42)
        assert oracle.gains() == ref.gains()

    def test_mlp_factory_matches_reference(self, dataset):
        bundles = [FeatureBundle.of([0]), FeatureBundle.of([1, 2])]
        params = {"epochs": 3}
        ref = PerformanceOracle.build_serial_reference(
            dataset, bundles, base_model="mlp", model_params=params, seed=0
        )
        oracle, _ = build_oracle(
            dataset, bundles, base_model="mlp", model_params=params, seed=0
        )
        assert oracle.gains() == ref.gains()


class TestFederatedCourseStillLossless:
    def test_fed_course_equals_fast_course_delta(self, dataset, shared):
        """End-to-end: ΔG via the federated protocol equals ΔG via the
        fast kernel under the oracle's actual seed derivation."""
        bundle = (0, 2, 4)
        m0 = 0.6
        fed = run_vfl(
            dataset, bundle, seed=0, m0=m0,
            model_params={"n_estimators": 5, "max_depth": 5},
            channel=Channel(),
        )
        course = FastForestCourse(
            shared.course_design(bundle),
            shared.y_train,
            n_estimators=5,
            max_depth=5,
            min_samples_leaf=2,
            max_features="sqrt",
            rng=spawn(0, dataset.name, "random_forest", "joint", bundle),
        )
        course.fit()
        m = course.score_binned(shared.course_test_codes(bundle), shared.y_test)
        assert m == fed.performance_joint
