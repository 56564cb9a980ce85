"""Property tests of the one corpus builder: a generated corpus equals its
saved-and-parsed round trip, parse then save reproduces a corpus file, each
vocabulary's ids and tokens invert each other, and the split partitions
the rows.  The generator's replay of numpy's draws returns numpy's values.

Runs derandomized and without an example database, so a run is repeatable;
the caches hypothesis keeps go to the system's temporary directory, not
into the checkout."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from dien.data import (  # noqa: E402
    SynthConfig,
    _replay,
    parse_corpus,
    save_corpus,
    synth_generate,
)
from dien.errors import VocabularyError  # noqa: E402

# hypothesis caches the constants of the source files it finds under its
# home directory, ./.hypothesis by default, database or not; it does so as
# the tests are collected, so the home is set here, at import
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "dien-hypothesis")
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def synth_configs(draw):
    n_cats = draw(st.integers(2, 6))
    n_items = draw(st.integers(3 * n_cats, 8 * n_cats))
    # below the smallest category's size, a history cannot use up the
    # category its target is drawn from
    seq_len = draw(st.integers(2, n_items // n_cats - 1))
    return SynthConfig(
        n_users=draw(st.integers(1, 40)), n_items=n_items, n_cats=n_cats, seq_len=seq_len,
        drift_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        noise=draw(st.sampled_from([0.0, 0.1, 1.0])), seed=draw(st.integers(0, 2**32)),
    )


TOKENS = st.sampled_from(["a", "b", "c", "z9", "b_1", "0"])


@st.composite
def corpus_texts(draw):
    """Lines of the wire format; a line may repeat the previous history, as
    a click and its paired non-click do."""
    lines = []
    history = None
    for _ in range(draw(st.integers(1, 12))):
        if history is None or not draw(st.booleans()):
            steps = draw(st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=4))
            history = ",".join(i for i, _ in steps) + "\t" + ",".join(c for _, c in steps)
        label = draw(st.sampled_from("01"))
        lines.append(f"{label}\t{draw(TOKENS)}\t{draw(TOKENS)}\t{history}\n")
    return "".join(lines)


@PROPERTY
@given(config=synth_configs())
def test_generated_corpus_equals_its_round_trip(config, tmp_path_factory):
    corpus = synth_generate(config)
    path = tmp_path_factory.mktemp("synth") / "corpus.tsv"
    save_corpus(corpus, path)
    parsed = parse_corpus(path)
    assert corpus.item_vocab.tokens() == parsed.item_vocab.tokens()
    assert corpus.cat_vocab.tokens() == parsed.cat_vocab.tokens()
    assert corpus.instances == parsed.instances
    np.testing.assert_array_equal(corpus.train_idx, parsed.train_idx)
    np.testing.assert_array_equal(corpus.test_idx, parsed.test_idx)
    np.testing.assert_array_equal(corpus.item_cats, parsed.item_cats)


@PROPERTY
@given(text=corpus_texts())
def test_save_of_parse_reproduces_the_file(text, tmp_path_factory):
    folder = tmp_path_factory.mktemp("file")
    (folder / "in.tsv").write_text(text, encoding="utf-8")
    corpus = parse_corpus(folder / "in.tsv")
    save_corpus(corpus, folder / "out.tsv")
    assert (folder / "out.tsv").read_bytes() == (folder / "in.tsv").read_bytes()
    assert_split_partitions(corpus)


def assert_split_partitions(corpus):
    """train_idx and test_idx are ascending int64 row numbers that together
    hold each row once, and rows sharing a history, as a pair does, sit on
    one side."""
    for idx in (corpus.train_idx, corpus.test_idx):
        assert idx.dtype == np.int64
        assert np.all(np.diff(idx) > 0)
    rows = np.sort(np.concatenate([corpus.train_idx, corpus.test_idx]))
    assert rows.tolist() == list(range(len(corpus.instances)))
    held_out = set(corpus.test_idx.tolist())
    for k in range(1, len(corpus.instances)):
        before, row = corpus.instances[k - 1], corpus.instances[k]
        if (before.history_items, before.history_cats) == (row.history_items, row.history_cats):
            assert (k - 1 in held_out) == (k in held_out)


@PROPERTY
@given(config=synth_configs())
def test_vocabularies_invert_and_split_partitions(config, tmp_path_factory):
    corpus = synth_generate(config)
    path = tmp_path_factory.mktemp("vocab") / "corpus.tsv"
    save_corpus(corpus, path)
    for built in (corpus, parse_corpus(path)):
        for vocab in (built.item_vocab, built.cat_vocab):
            assert [vocab.id_of(vocab.token_of(i)) for i in range(len(vocab))] == \
                list(range(len(vocab)))
            with pytest.raises(VocabularyError):
                vocab.id_of("unseen")
        assert_split_partitions(built)


# bounds at each edge of the replay's cases: nothing drawn at 1, 32-bit
# halves up to 2**32, whole words above, to int64's largest; 3 * 2**30 and
# 3 * 2**61 reject a quarter of their halves and words
REPLAY_BOUNDS = [1, 2, 3, 10, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63 - 1]


@PROPERTY
@given(seed=st.integers(0, 2**64), calls=st.lists(
    st.one_of(st.none(), st.sampled_from(REPLAY_BOUNDS)), max_size=80))
def test_replay_matches_numpy(seed, calls):
    # None is a random() call, k an integers(k) call; a numpy release whose
    # Generator draws otherwise fails here
    (random, integers), rng = _replay(seed), np.random.default_rng(seed)
    for k in calls:
        if k is None:
            assert random() == rng.random()
        else:
            assert integers(k) == rng.integers(k)
