"""Embedding table behavior: lookups, sparse gradient accumulation, and the
feature assembly the batched engine builds from two tables."""

import tracemalloc

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

    @pytest.mark.parametrize("vocab, dim, seed", [(6, 3, 0), (50, 16, 1), (9, 1, 2)])
    def test_rows_hold_the_checkpoint_draw_transposed(self, vocab, dim, seed):
        # one row per id in memory, drawn as the (dim, vocab) checkpoint order
        # draws, so a seed writes the same checkpoint bytes as ever
        t = EmbeddingTable(vocab, dim, rng=np.random.default_rng(seed))
        assert t.weights.shape == (vocab, dim) and t.weights.flags.c_contiguous
        np.testing.assert_array_equal(t.weights[PAD_ID], np.zeros(dim))
        bound = 1.0 / np.sqrt(dim)
        drawn = np.random.default_rng(seed).uniform(-bound, bound, size=(dim, vocab))
        np.testing.assert_array_equal(t.weights.T[:, 1:], drawn[:, 1:])

    def test_build_holds_one_table_at_a_time(self):
        # a whole-table transposed copy would double the peak
        tracemalloc.start()
        try:
            t = EmbeddingTable(200_001, 16, rng=np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * t.weights.nbytes

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
        np.testing.assert_array_equal(a.grad_columns(), b.grad_columns())
        np.testing.assert_array_equal(a.touched_ids(), b.touched_ids())

    def test_calls_equal_a_scatter_add_reference(self):
        # each id's rows sum in call order, the rows stored by earlier calls
        # first, exactly as np.add.at into a zeroed dense buffer sums them
        rng = np.random.default_rng(13)
        t = make_table(vocab=7, dim=4)
        dense = np.zeros((7, 4))
        for n in (50, 1, 30, 80):
            ids = rng.integers(0, 7, size=n)
            grads = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
            t.accumulate_grad_many(ids, grads)
            np.add.at(dense, ids, grads)
            np.testing.assert_array_equal(t.grad_columns(), dense.T)
        ids, rows = t.grad_rows()
        np.testing.assert_array_equal(ids, np.flatnonzero(dense.any(axis=1)))
        np.testing.assert_array_equal(rows, dense[ids])

    def test_stored_rows_do_not_alias_the_inputs(self):
        t = make_table()
        ids, grads = np.array([1, 3]), np.arange(6.0).reshape(2, 3)
        t.accumulate_grad_many(ids, grads)
        ids[:], grads[:] = 2, -1.0
        t.touched_ids()[:] = 5
        np.testing.assert_array_equal(t.touched_ids(), [1, 3])
        np.testing.assert_array_equal(t.grad_columns()[:, [1, 3]], np.arange(6.0).reshape(2, 3).T)

    def test_grad_columns_is_dense_and_zero_elsewhere(self):
        t = make_table(vocab=6, dim=3)
        t.accumulate_grad_many([4, 1, 4], np.ones((3, 3)))
        got = t.grad_columns()
        assert got.shape == (3, 6)
        np.testing.assert_array_equal(got[:, [1, 4]], [[1.0, 2.0]] * 3)
        assert not np.any(np.delete(got, [1, 4], axis=1))

    def test_zero_grad_clears(self):
        t = make_table()
        t.accumulate_grad_many([4, 1, 4], np.ones((3, 3)))
        t.zero_grad()
        assert t.touched_ids().size == 0
        np.testing.assert_array_equal(t.grad_columns(), np.zeros((3, 6)))
        t.accumulate_grad_many([2], np.ones((1, 3)))
        np.testing.assert_array_equal(t.touched_ids(), [2])


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
