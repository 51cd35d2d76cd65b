"""Bit-identical fast replay of a random-forest VFL course.

The federated forest protocol is **lossless**: with shared seeds it
produces exactly the predictions of the centralised
:class:`~repro.ml.forest.RandomForestClassifier` on the concatenated
party features (pinned by ``tests/vfl/test_fedforest.py``).  The
platform therefore does not need to simulate channel traffic to learn a
course's ΔG — it can replay the course centrally, provided the replay
consumes randomness and breaks ties *exactly* like the seed path.

:class:`FastForestCourse` is that replay, rebuilt around the cost
profile of oracle workloads: thousands of small nodes, each worth a few
small histogram/score arrays, where numpy's per-call overhead costs more
than the arithmetic.

* **Lockstep waves.**  All trees of the course grow together.  Each
  wave pops the next pending node of every unfinished tree and scores
  them all with one gather, one ``bincount`` (each node's cells offset
  by its wave slot), one ``cumsum``, one score expression and a
  per-node ``argmax``; one mask then partitions every splitting node's
  rows.  A wave gathers at most ``_WAVE_CELLS`` (row, feature) cells;
  trees that do not fit wait for the next wave.
* **Why the random draws do not change.**  Tree ``t`` draws only from
  its own stream ``spawn(rng, "tree", t)``, and ``spawn`` does not
  advance its parent.  Within a tree, nodes are still popped from its
  own depth-first stack (right child first), so each tree makes the
  seed path's ``integers``/``choice`` calls in the seed path's order;
  only the interleaving *between* trees changes, and no stream sees it.
* Histograms are computed **only over the node's sampled feature
  subset** (``max_features``), not all features — the subset is sorted
  so the flattened argmax keeps the seed path's row-major tie-breaking.
* Labels are folded into the codes, so one ``bincount`` yields count
  and positive histograms together, and one ``cumsum`` yields all four
  child statistics (the label-0 half *is* ``cnt_l - pos_l``, exact in
  integers).
* Node sizes and positive counts are propagated from the parent's
  split statistics, so terminal nodes cost no array work at all.
* The fitted ensemble is flattened and traversed once over pre-binned
  test codes (prediction semantics, see
  :mod:`~repro.oracle_factory.designs`).

Every floating-point expression keeps the operation order of
:func:`repro.ml.tree.best_split` on exactly-integer inputs, elementwise,
so batching nodes changes no bit — which is what makes the results
bit-identical rather than merely statistically equivalent (pinned by
``tests/oracle_factory/test_course_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import BinnedDesign, resolve_max_features
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import require

__all__ = ["FastForestCourse"]

_LEAF = -1
_NEG_INF = -np.inf
#: Most (row, feature) cells one wave gathers.  The first wave holds
#: every tree's bootstrap sample at once, so without a cap a wave's
#: temporaries grow with ``n_estimators * n_samples * max_features``.
_WAVE_CELLS = 1 << 20


class _GrowingTree:
    """One tree's node table, pending-node stack and random stream."""

    __slots__ = ("rng", "feature", "bin", "left", "right", "value", "stack")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.feature: list[int] = []
        self.bin: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.stack: list[tuple[int, np.ndarray, int, int, int]] = []

    def new_node(self, value: float) -> int:
        self.feature.append(_LEAF)
        self.bin.append(0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        return len(self.feature) - 1

    def split(
        self,
        node: int,
        f: int,
        b: int,
        child_depth: int,
        max_depth: int,
        rows_l: np.ndarray,
        n_left: int,
        pos_left: int,
        rows_r: np.ndarray,
        n_right: int,
        pos_right: int,
    ) -> None:
        """Turn ``node`` into a split; queue the children that can split.

        Left is pushed before right, so right is grown first — the seed
        tree's depth-first order.
        """
        left_id = self.new_node(pos_left / n_left)
        right_id = self.new_node(pos_right / n_right)
        self.feature[node] = f
        self.bin[node] = b
        self.left[node] = left_id
        self.right[node] = right_id
        if child_depth >= max_depth:
            return
        if not (n_left < 2 or pos_left == 0 or pos_left == n_left):
            self.stack.append((left_id, rows_l, child_depth, n_left, pos_left))
        if not (n_right < 2 or pos_right == 0 or pos_right == n_right):
            self.stack.append((right_id, rows_r, child_depth, n_right, pos_right))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.bin, dtype=np.int64),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value),
        )


class FastForestCourse:
    """Grow and score one forest course on a pre-binned design.

    Parameters mirror :class:`~repro.ml.forest.RandomForestClassifier`;
    ``rng`` must be the same generator the seed path would construct for
    this course (bit-identity is a property of the *pair* (kernel,
    stream)).
    """

    def __init__(
        self,
        design: BinnedDesign,
        y: np.ndarray,
        *,
        n_estimators: int = 15,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        rng: object = None,
    ):
        require(n_estimators >= 1, "n_estimators must be >= 1")
        require(design.n_samples == np.asarray(y).shape[0], "design/y row mismatch")
        self.design = design
        self.y_bool = np.asarray(y) != 0.0
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.rng = as_generator(rng)
        self.trees_: list[tuple[np.ndarray, ...]] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self) -> "FastForestCourse":
        """Grow ``n_estimators`` trees, consuming rng like the seed path.

        The trees grow in lockstep: each wave pops the next pending node
        of every unfinished tree and scores all of them with one gather,
        one ``bincount`` and one ``cumsum``.
        """
        design = self.design
        d, n_bins = design.n_features, design.n_bins
        n = self.y_bool.shape[0]
        max_feat = resolve_max_features(self.max_features, d)
        subset = max_feat < d
        k = max_feat if subset else d
        n_cuts = np.array([e.shape[0] for e in design.edges], dtype=np.int64)
        offs = np.arange(k, dtype=np.int64) * n_bins
        valid_full = (
            np.arange(n_bins - 1, dtype=np.int64)[None, :] < n_cuts[:, None]
            if n_bins > 1
            else np.zeros((d, 0), dtype=bool)
        )
        two_block = 2 * k * n_bins
        msl = self.min_samples_leaf
        max_depth = self.max_depth
        nb1 = n_bins - 1
        # Labels folded into the codes: one bincount per wave counts the
        # (node, feature, bin, label) cells of every histogram at once.
        labeled = design.codes.astype(np.int64)
        labeled += (self.y_bool.astype(np.int64) * (k * n_bins))[:, None]
        if not subset:
            labeled += offs
        # Flat views: a 1-D ``take`` at ``row * d + feature`` is the
        # cheapest gather numpy has for scattered (row, feature) cells.
        codes_flat = design.codes.ravel()
        labeled_flat = labeled.ravel()
        base_rows = np.arange(n, dtype=np.int64)
        trees: list[_GrowingTree] = []
        for t in range(self.n_estimators):
            tree = _GrowingTree(spawn(self.rng, "tree", t))
            rows0 = tree.rng.integers(0, n, size=n) if self.bootstrap else base_rows
            pos_root = int(self.y_bool[rows0].sum())
            root = tree.new_node(pos_root / n)
            if not (
                max_depth <= 0 or n < 2 or pos_root == 0 or pos_root == n or n_bins <= 1
            ):
                tree.stack.append((root, rows0, 0, n, pos_root))
            trees.append(tree)
        growing = [tree for tree in trees if tree.stack]
        with np.errstate(divide="ignore", invalid="ignore"):
            while growing:
                wave = []
                cells = 0
                for tree in growing:
                    cells += tree.stack[-1][3] * k
                    if wave and cells > _WAVE_CELLS:
                        break
                    wave.append(tree)
                w = len(wave)
                slots = np.arange(w)
                popped = [tree.stack.pop() for tree in wave]
                sizes = np.array([p[3] for p in popped], dtype=np.int64)
                positives = np.array([p[4] for p in popped], dtype=np.int64)
                rows = np.concatenate([p[1] for p in popped])
                if subset:
                    # Each tree draws from its own stream in its own
                    # depth-first order, so the calls match the seed path.
                    chosen = np.empty((w, k), dtype=np.int64)
                    for i, tree in enumerate(wave):
                        chosen[i] = tree.rng.choice(d, size=max_feat, replace=False)
                    chosen.sort(axis=1)
                    valid = valid_full[chosen]
                    at = np.repeat(chosen, sizes, axis=0)
                    at += (rows * d)[:, None]
                    sub = labeled_flat.take(at)
                    sub += offs
                else:
                    valid = valid_full
                    sub = labeled[rows]
                if w > 1:  # slot 0's histogram needs no offset
                    sub += np.repeat(slots * two_block, sizes)[:, None]
                h = np.bincount(sub.ravel(), minlength=w * two_block)
                S = h.reshape(w, 2 * k, n_bins)[:, :, :-1].cumsum(axis=2)
                neg_l = S[:, :k]
                pos_l = S[:, k:]
                cnt_l = neg_l + pos_l
                n_node = sizes[:, None, None]
                pos = positives[:, None, None]
                cnt_r = n_node - cnt_l
                pos_r = pos - pos_l
                neg_r = (n_node - pos) - neg_l
                ok = (np.minimum(cnt_l, cnt_r) >= msl) & valid
                # Same expression (and op order) as ml.tree.best_split
                # on exactly-integer histograms.
                score = np.where(
                    ok,
                    (pos_l * pos_l + neg_l * neg_l) / cnt_l
                    + (pos_r * pos_r + neg_r * neg_r) / cnt_r,
                    _NEG_INF,
                ).reshape(w, k * nb1)
                # Row-major argmax per node: the seed path's tie-breaking.
                flat_best = score.argmax(axis=1)
                parent = (
                    positives * positives + (sizes - positives) ** 2
                ) / sizes
                split = ~(score[slots, flat_best] <= parent + 1e-12)
                if split.any():
                    f, b = np.divmod(flat_best, nb1)
                    if subset:
                        f = chosen[slots, f]
                    n_left = cnt_l.reshape(w, -1)[slots, flat_best]
                    pos_left = pos_l.reshape(w, -1)[slots, flat_best]
                    # Partition every node's rows at once; each side keeps
                    # the rows grouped by slot, in their order.  A node
                    # that does not split sends all rows left (no code
                    # exceeds nb1), so every slot's left count is known.
                    b = np.where(split, b, nb1)
                    n_left = np.where(split, n_left, sizes)
                    go_left = codes_flat.take(rows * d + np.repeat(f, sizes))
                    go_left = go_left <= np.repeat(b, sizes)
                    rows_l = rows[go_left]
                    rows_r = rows[~go_left]
                    edge_l = [0, *np.cumsum(n_left).tolist()]
                    edge_r = [0, *np.cumsum(sizes - n_left).tolist()]
                    n_left = n_left.tolist()
                    pos_left = pos_left.tolist()
                    f_list, b_list = f.tolist(), b.tolist()
                    for i in np.flatnonzero(split).tolist():
                        node, _, depth, nn, pp = popped[i]
                        nl, pl = n_left[i], pos_left[i]
                        wave[i].split(
                            node, f_list[i], b_list[i], depth + 1, max_depth,
                            rows_l[edge_l[i]:edge_l[i + 1]], nl, pl,
                            rows_r[edge_r[i]:edge_r[i + 1]], nn - nl, pp - pl,
                        )
                growing = [tree for tree in growing if tree.stack]
        self.trees_ = [tree.arrays() for tree in trees]
        self._flatten()
        return self

    def _flatten(self) -> None:
        """Concatenate the ensemble for one-pass vectorised traversal."""
        trees = self.trees_
        sizes = [tr[0].shape[0] for tr in trees]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        self._flat_feature = np.concatenate([tr[0] for tr in trees])
        self._flat_bin = np.concatenate([tr[1] for tr in trees])
        self._flat_left = np.concatenate(
            [np.where(tr[2] != _LEAF, tr[2] + s, _LEAF) for tr, s in zip(trees, starts)]
        )
        self._flat_right = np.concatenate(
            [np.where(tr[3] != _LEAF, tr[3] + s, _LEAF) for tr, s in zip(trees, starts)]
        )
        self._flat_value = np.concatenate([tr[4] for tr in trees])
        self._roots = starts

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def predict_proba_binned(self, test_codes: np.ndarray) -> np.ndarray:
        """Mean tree probability over rows pre-binned with side="left"."""
        require(bool(self.trees_), "course must be fit before predicting")
        m = test_codes.shape[0]
        n_trees = len(self.trees_)
        node = np.repeat(self._roots, m)
        rows = np.tile(np.arange(m), n_trees)
        active = self._flat_left[node] != _LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = (
                test_codes[rows[idx], self._flat_feature[cur]] <= self._flat_bin[cur]
            )
            node[idx] = np.where(go_left, self._flat_left[cur], self._flat_right[cur])
            active[idx] = self._flat_left[node[idx]] != _LEAF
        probs = self._flat_value[node].reshape(n_trees, m)
        # Sequential accumulation in tree order — the same float addition
        # order as the seed forest's `acc += tree.predict_proba(X)` loop.
        acc = np.zeros(m)
        for t in range(n_trees):
            acc += probs[t]
        return acc / n_trees

    def score_binned(self, test_codes: np.ndarray, y: np.ndarray) -> float:
        """Accuracy over pre-binned test rows (0.5 threshold)."""
        pred = (self.predict_proba_binned(test_codes) >= 0.5).astype(np.int64)
        return float((pred == np.asarray(y, dtype=np.int64)).mean())
