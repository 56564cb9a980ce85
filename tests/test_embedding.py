"""Embedding table behavior: lookups, sparse gradient accumulation, and the
feature assembly the batched engine builds from two tables."""

import numpy as np
import pytest

from dien.data import Instance
from dien.embedding import PAD_ID, EmbeddingTable
from dien.errors import ShapeError, VocabularyError
from dien.model import DienModel, ModelVariant, forward_batch, make_batch


def make_table(vocab=6, dim=3, seed=0):
    return EmbeddingTable(vocab, dim, rng=np.random.default_rng(seed))


class TestTable:
    def test_pad_column_zero_at_init(self):
        t = make_table()
        np.testing.assert_array_equal(t.lookup(PAD_ID), np.zeros(3))

    def test_init_bound(self):
        t = EmbeddingTable(50, 16, rng=np.random.default_rng(1))
        assert np.all(np.abs(t.weights) <= 1.0 / 4.0)

    def test_lookup_is_copy(self):
        t = make_table()
        v = t.lookup(2)
        v[:] = 99.0
        assert not np.any(t.lookup(2) == 99.0)

    def test_lookup_out_of_range(self):
        t = make_table(vocab=5)
        with pytest.raises(VocabularyError, match="id 5"):
            t.lookup(5)
        with pytest.raises(VocabularyError):
            t.lookup(-1)

    def test_lookup_many_matches_scalar(self):
        t = make_table()
        ids = np.array([1, 4, 1, 0])
        got = t.lookup_many(ids)
        assert got.shape == (4, 3)
        for row, idx in zip(got, ids):
            np.testing.assert_array_equal(row, t.lookup(int(idx)))

    def test_lookup_many_batched(self):
        # a (B, T) id grid must come back as (B, T, dim)
        t = make_table()
        ids = np.array([[1, 2], [3, 0], [5, 5]])
        got = t.lookup_many(ids)
        assert got.shape == (3, 2, 3)
        np.testing.assert_array_equal(got[2, 1], t.lookup(5))

    def test_lookup_many_rejects_stray_id(self):
        t = make_table(vocab=4)
        with pytest.raises(VocabularyError):
            t.lookup_many(np.array([[1, 2], [9, 0]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingTable(0, 3, rng=np.random.default_rng(0))


class TestGradAccumulation:
    def test_repeat_ids_sum(self):
        t = make_table()
        t.accumulate_grad_many([2, 2], [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
        np.testing.assert_array_equal(t.touched_ids(), [2])
        np.testing.assert_array_equal(t.grad_columns()[:, 2], [1.5, 1.0, 0.0])

    def test_untouched_ids_absent(self):
        t = make_table()
        t.accumulate_grad_many([1], np.ones((1, 3)))
        np.testing.assert_array_equal(t.touched_ids(), [1])
        assert not np.any(np.delete(t.grad_columns(), 1, axis=1))

    def test_many_equals_loop(self):
        rng = np.random.default_rng(12)
        a, b = make_table(seed=3), make_table(seed=3)
        ids = rng.integers(0, 6, size=40)
        grads = rng.standard_normal((40, 3))
        a.accumulate_grad_many(ids, grads)
        for i, g in zip(ids, grads):
            b.accumulate_grad_many([i], g[None])
        np.testing.assert_allclose(a.grad_columns(), b.grad_columns(), atol=1e-12)
        np.testing.assert_array_equal(a.touched_ids(), b.touched_ids())

    def test_zero_grad_clears(self):
        t = make_table()
        t.accumulate_grad_many([4, 1, 4], np.ones((3, 3)))
        t.zero_grad()
        assert t.touched_ids().size == 0
        np.testing.assert_array_equal(t.grad_columns(), np.zeros((3, 6)))
        t.accumulate_grad_many([2], np.ones((1, 3)))
        np.testing.assert_array_equal(t.touched_ids(), [2])

    def test_grad_shape_guard(self):
        t = make_table()
        with pytest.raises(ShapeError):
            t.accumulate_grad_many([1], np.ones((1, 4)))


class TestFeatureEmbeddings:
    """forward_batch concatenates the item and category halves per step and
    for the target, and pads with the zero column of id 0."""

    def features(self, *insts):
        model = DienModel.build(ModelVariant.BASE, 8, 5, 2, 4, (3,), 0.0, seed=20)
        ctx = forward_batch(model, make_batch(list(insts)))
        return model.item_table, model.cat_table, ctx

    def test_behavior_concat_order(self):
        inst = Instance((3, 1), (2, 4), target_item=5, target_cat=1, label=1)
        items, cats, ctx = self.features(inst)
        bv = ctx["behaviors"][0]
        assert bv.shape == (2, 4)
        np.testing.assert_array_equal(bv[0, :2], items.lookup(3))
        np.testing.assert_array_equal(bv[0, 2:], cats.lookup(2))

    def test_target_concat(self):
        inst = Instance((1,), (1,), target_item=6, target_cat=3, label=0)
        items, cats, ctx = self.features(inst)
        np.testing.assert_array_equal(
            ctx["targets"][0], np.concatenate([items.lookup(6), cats.lookup(3)])
        )

    def test_padding_rows_zero(self):
        inst = Instance((2,), (1,), target_item=3, target_cat=2, label=1)
        longer = Instance((1, 2, 3, 4), (1, 2, 3, 4), target_item=5, target_cat=1, label=0)
        _, _, ctx = self.features(inst, longer)  # the longer row pads the first to 4
        np.testing.assert_array_equal(ctx["mask"][0], [1.0, 0.0, 0.0, 0.0])
        assert ctx["behaviors"].shape == (2, 4, 4)
        np.testing.assert_array_equal(ctx["behaviors"][0, 1:], np.zeros((3, 4)))
