"""Property tests of the batched engine: a batch holds each distinct history
once, the score of a row does not depend on the rows scored beside it, and
a forward-only pass gives the caching pass's values bitwise.

Batches are built from click/non-click pairs, as a corpus holds them, so the
extractor runs once per pair.  Runs derandomized and without an example
database, so a run is repeatable."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from dien.data import Instance  # noqa: E402
from dien.embedding import PAD_ID  # noqa: E402
from dien.model import DienModel, ModelVariant, forward_batch, make_batch  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "dien-hypothesis")
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
ALONE_TOLERANCE = 1e-12  # the benchmark's row-alone-versus-chunk bound
N_ITEMS, N_CATS = 30, 6


@st.composite
def paired_batches(draw):
    """(model, rows, permutation, split point) for a mixed-length batch of pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    variant = draw(st.sampled_from(list(ModelVariant)))
    model = DienModel.build(variant, N_ITEMS, N_CATS, 4, 8, (6,), 1.0,
                            seed=draw(st.integers(0, 1000)))
    rows = []
    for length in rng.integers(1, 21, size=draw(st.integers(1, 128))):
        items = tuple(int(v) for v in rng.integers(1, N_ITEMS, size=length))
        cats = tuple(int(v) for v in rng.integers(1, N_CATS, size=length))
        for label in (1, 0):
            rows.append(Instance(items, cats, int(rng.integers(1, N_ITEMS)),
                                 int(rng.integers(1, N_CATS)), label))
    order = draw(st.permutations(range(len(rows))))
    split = draw(st.integers(1, len(rows) - 1))
    return model, rows, np.asarray(order, dtype=np.int64), split


def probs(model, rows) -> np.ndarray:
    return forward_batch(model, make_batch(rows))["probs"]


@PROPERTY
@given(paired_batches())
def test_permuted_rows_give_permuted_scores_bitwise(case):
    model, rows, order, _ = case
    np.testing.assert_array_equal(probs(model, [rows[i] for i in order]),
                                  probs(model, rows)[order])


@PROPERTY
@given(paired_batches())
def test_chunks_and_single_rows_agree_with_the_whole_batch(case):
    model, rows, _, split = case
    whole = probs(model, rows)
    chunked = np.concatenate([probs(model, rows[:split]), probs(model, rows[split:])])
    alone = np.array([probs(model, [row])[0] for row in rows])
    np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=ALONE_TOLERANCE)
    np.testing.assert_allclose(alone, whole, rtol=0.0, atol=ALONE_TOLERANCE)


@PROPERTY
@given(paired_batches())
def test_forward_only_gives_the_caching_values_bitwise(case):
    model, rows, _, _ = case
    batch = make_batch(rows)
    kept = forward_batch(model, batch)
    alone = forward_batch(model, batch, for_backward=False)
    names = {ModelVariant.BASE: ["probs"],
             ModelVariant.TWO_LAYER_GRU_ATT: ["probs", "scores", "states1", "states2"]}
    for name in names.get(model.variant, ["probs", "scores", "states1", "evolved"]):
        np.testing.assert_array_equal(alone[name], kept[name], err_msg=name)


@st.composite
def rows_with_repeats(draw):
    """Rows drawn again and again from a few histories, in any order."""
    history = st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, N_ITEMS - 1), min_size=n, max_size=n).map(tuple),
        st.lists(st.integers(1, N_CATS - 1), min_size=n, max_size=n).map(tuple)))
    pool = draw(st.lists(history, min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return [Instance(items, cats, 1, 1, k % 2) for k, (items, cats) in enumerate(picks)]


def padded(histories, width: int) -> np.ndarray:
    return np.array([list(h) + [PAD_ID] * (width - len(h)) for h in histories])


@PROPERTY
@given(rows_with_repeats())
def test_each_distinct_history_is_held_once_in_first_appearance_order(rows):
    batch = make_batch(rows)
    keys = [(row.history_items, row.history_cats) for row in rows]
    distinct = list(dict.fromkeys(keys))
    width = max(len(items) for items, _ in keys)
    np.testing.assert_array_equal(batch.history_items, padded([i for i, _ in distinct], width))
    np.testing.assert_array_equal(batch.history_cats, padded([c for _, c in distinct], width))
    np.testing.assert_array_equal(batch.history_lens, [len(i) for i, _ in distinct])
    np.testing.assert_array_equal(batch.history_of, [distinct.index(key) for key in keys])
    np.testing.assert_array_equal(batch.first_rows, [keys.index(key) for key in distinct])
    np.testing.assert_array_equal(batch.history_of[batch.first_rows], np.arange(len(distinct)))
    # the per-row views are a naive padding of every row
    np.testing.assert_array_equal(batch.item_ids, padded([i for i, _ in keys], width))
    np.testing.assert_array_equal(batch.cat_ids, padded([c for _, c in keys], width))
