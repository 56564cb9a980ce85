"""Corpus parsing, the planted-interest generator, and split mechanics."""

from dataclasses import replace

import numpy as np
import pytest

from dien.data import (
    PAD_TOKEN,
    TEST_FRACTION,
    Instance,
    SynthConfig,
    Vocab,
    _build_corpus,
    _kth_unseen,
    parse_corpus,
    save_corpus,
    synth_generate,
    truncate_history,
)
from dien.errors import ConfigError, DegenerateError, DomainError, ParseError, VocabularyError


class TestVocab:
    def test_reserved_padding_token(self, tmp_path):
        corpus = parse_corpus(write_corpus(tmp_path, "1\tb\tx\ta\ty\n"))
        for v in (corpus.item_vocab, corpus.cat_vocab):
            assert v.token_of(0) == PAD_TOKEN
            assert v.id_of(PAD_TOKEN) == 0

    def test_first_seen_assignment(self, tmp_path):
        # "b" comes back in the history and keeps its first id
        v = parse_corpus(write_corpus(tmp_path, "1\tb\tx\ta,b\ty,x\n")).item_vocab
        assert len(v) == 3
        assert v.tokens() == ["<pad>", "b", "a"]
        assert (v.id_of("b"), v.id_of("a")) == (1, 2)

    def test_id_is_position_in_the_token_list(self):
        v = Vocab([PAD_TOKEN, "b", "a"])
        assert [v.id_of(t) for t in (PAD_TOKEN, "b", "a")] == [0, 1, 2]
        assert [v.token_of(i) for i in range(3)] == [PAD_TOKEN, "b", "a"]
        v.tokens().append("c")  # a copy: the vocabulary does not grow
        assert len(v) == 3

    def test_unknown_token(self):
        v = Vocab([PAD_TOKEN, "b"])
        with pytest.raises(VocabularyError, match="unknown token 'missing'"):
            v.id_of("missing")
        for idx in (2, -1):
            with pytest.raises(VocabularyError, match=f"id {idx} outside"):
                v.token_of(idx)


class TestInstance:
    def test_misaligned_history(self):
        with pytest.raises(ParseError, match="misaligned"):
            Instance((1, 2, 3), (1, 2), 4, 1, 1)

    def test_empty_history(self):
        with pytest.raises(ParseError, match="empty"):
            Instance((), (), 1, 1, 0)

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            Instance((1,), (1,), 1, 1, 2)

    def test_slotted(self):
        inst = Instance((1, 2, 3), (1, 1, 2), 4, 1, 1)
        assert not hasattr(inst, "__dict__")
        with pytest.raises(AttributeError):
            inst.weight = 1.0
        assert replace(inst, label=0) == Instance((1, 2, 3), (1, 1, 2), 4, 1, 0)
        with pytest.raises(ParseError, match="label"):
            replace(inst, label=2)  # a replaced instance is checked again
        assert truncate_history(inst, 2) == Instance((2, 3), (1, 2), 4, 1, 1)


def write_corpus(tmp_path, text, name="corpus.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParseCorpus:
    def test_two_line_file(self, tmp_path):
        p = write_corpus(tmp_path,
                         "1\tI9\tC2\tI1,I2\tC1,C1\n"
                         "0\tI7\tC3\tI1,I2\tC1,C1\n")
        corpus = parse_corpus(p)
        assert len(corpus.instances) == 2
        # pad + I9, I1, I2, I7 and pad + C2, C1, C3, first seen
        assert len(corpus.item_vocab) == 5
        assert len(corpus.cat_vocab) == 4
        pos, neg = corpus.instances
        assert pos.label == 1 and neg.label == 0
        assert pos.history_items == neg.history_items

    def test_field_count_error_names_line(self, tmp_path):
        p = write_corpus(tmp_path, "1\tI1\tC1\tI2\tC1\n1\tI1\tC1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_corpus(p)

    def test_misalignment_error_names_line(self, tmp_path):
        p = write_corpus(tmp_path, "1\tI1\tC1\tI2,I3,I4\tC1,C1\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_corpus(p)

    @pytest.mark.parametrize("field_no, line", [
        (2, "1\t<pad>\tC1\tI2\tC1"),
        (3, "1\tI1\t<pad>\tI2\tC1"),
        (4, "1\tI1\tC1\tI2,<pad>\tC1,C1"),
        (5, "1\tI1\tC1\tI2,I3\tC1,<pad>"),
    ])
    def test_padding_token_rejected(self, tmp_path, field_no, line):
        # id 0 is the zero padding vector: a corpus token must never map to it
        p = write_corpus(tmp_path, f"1\tI1\tC1\tI2\tC1\n{line}\n")
        with pytest.raises(ParseError, match=f"line 2: field {field_no}: {PAD_TOKEN}"):
            parse_corpus(p)

    def test_bad_label_rejected(self, tmp_path):
        p = write_corpus(tmp_path, "7\tI1\tC1\tI2\tC1\n")
        with pytest.raises(ParseError, match="label"):
            parse_corpus(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_corpus(tmp_path, "")
        with pytest.raises(ParseError, match="no instances"):
            parse_corpus(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = write_corpus(tmp_path, "\n1\tI1\tC1\tI2\tC1\n\n")
        assert len(parse_corpus(p).instances) == 1

    def test_round_trip_is_identity(self, tmp_path):
        corpus = synth_generate(SynthConfig(n_users=40, n_items=30, n_cats=4,
                                            seq_len=5, seed=3))
        f1 = tmp_path / "one.tsv"
        f2 = tmp_path / "two.tsv"
        save_corpus(corpus, f1)
        reparsed = parse_corpus(f1)
        save_corpus(reparsed, f2)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("field, value, bad", [
        ("target_item", -1, -1), ("target_cat", 5, 5), ("history_items", (1, -2), -2),
        ("history_cats", (4, 1), 4), ("history_items", (30, 1), 30),
    ])
    def test_save_rejects_ids_outside_the_vocabulary(self, tmp_path, field, value, bad):
        # a negative id must not wrap round to the end of the token list
        p = write_corpus(tmp_path, "1\tI1\tC1\tI2,I3\tC1,C2\n0\tI4\tC3\tI2,I3\tC1,C2\n")
        corpus = parse_corpus(p)  # 5 item tokens and 4 category tokens, <pad> included
        corpus.instances[1] = replace(corpus.instances[1], **{field: value})
        with pytest.raises(VocabularyError, match=f"^id {bad} outside"):
            save_corpus(corpus, tmp_path / "out.tsv")

    def test_split_deterministic_in_seed(self, tmp_path):
        corpus = synth_generate(SynthConfig(n_users=50, n_items=30, n_cats=4,
                                            seq_len=4, seed=1))
        p = tmp_path / "c.tsv"
        save_corpus(corpus, p)
        a = parse_corpus(p, split_seed=5)
        b = parse_corpus(p, split_seed=5)
        c = parse_corpus(p, split_seed=6)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        assert not np.array_equal(a.test_idx, c.test_idx)

    def test_paired_lines_stay_on_one_side(self, tmp_path):
        corpus = synth_generate(SynthConfig(n_users=60, n_items=30, n_cats=4,
                                            seq_len=4, seed=2))
        p = tmp_path / "c.tsv"
        save_corpus(corpus, p)
        got = parse_corpus(p, split_seed=9)
        test = set(got.test_idx)
        for k in range(0, len(got.instances), 2):
            assert ((k in test) == (k + 1 in test)), "pair split across train/test"

    def test_ids_follow_line_order(self, tmp_path):
        # within a line: target item, target category, history items, history
        # categories; item_cats reads a line's history before its target
        p = write_corpus(tmp_path,
                         "1\tA\tX\tB,A\tY,Z\n"
                         "0\tD\tW\tC,E\tX,Y\n")
        corpus = parse_corpus(p)
        assert corpus.item_vocab.tokens() == [PAD_TOKEN, "A", "B", "D", "C", "E"]
        assert corpus.cat_vocab.tokens() == [PAD_TOKEN, "X", "Y", "Z", "W"]
        assert corpus.instances == [Instance((2, 1), (2, 3), 1, 1, 1),
                                    Instance((4, 5), (1, 2), 3, 4, 0)]
        assert corpus.item_cats.tolist() == [0, 3, 2, 4, 1, 2]

    def test_negative_split_seed_rejected(self, tmp_path):
        p = write_corpus(tmp_path, "1\tI1\tC1\tI2\tC1\n")
        with pytest.raises(ConfigError, match="split_seed must not be negative"):
            parse_corpus(p, split_seed=-1)

    def test_all_instances_covered_once(self, tmp_path):
        # distinct histories so each line is its own split unit
        p = write_corpus(tmp_path, "".join(
            f"1\tT{k}\tC1\tI{k}\tC1\n" for k in range(1, 21)))
        got = parse_corpus(p, split_seed=0)
        both = np.sort(np.concatenate([got.train_idx, got.test_idx]))
        assert both.tolist() == list(range(20))
        assert len(got.test_idx) == 2  # TEST_FRACTION of 20 units


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig().validate()

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(drift_prob=1.5).validate()
        with pytest.raises(ConfigError):
            SynthConfig(noise=-0.1).validate()

    def test_structural_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_cats=1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(seq_len=1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(n_items=15, n_cats=10).validate()
        with pytest.raises(ConfigError, match="seed must not be negative"):
            SynthConfig(seed=-1).validate()


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_users=100, n_items=40, n_cats=4, seq_len=6, seed=11)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert a.instances == b.instances
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_seed_matters(self):
        a = synth_generate(SynthConfig(n_users=50, n_items=40, n_cats=4, seed=0))
        b = synth_generate(SynthConfig(n_users=50, n_items=40, n_cats=4, seed=1))
        assert a.instances != b.instances

    def test_exact_label_balance(self):
        corpus = synth_generate(SynthConfig(n_users=300, n_items=60, n_cats=6, seed=4))
        labels = [inst.label for inst in corpus.instances]
        assert sum(labels) == 300
        assert len(labels) == 600

    def test_pairs_share_history_and_differ_in_category(self):
        corpus = synth_generate(SynthConfig(n_users=200, n_items=60, n_cats=6, seed=5))
        for k in range(0, 400, 2):
            pos, neg = corpus.instances[k], corpus.instances[k + 1]
            assert pos.history_items == neg.history_items
            assert pos.target_cat != neg.target_cat

    def test_positive_target_unseen_and_on_interest(self):
        corpus = synth_generate(SynthConfig(n_users=200, seed=6))
        for k in range(0, 400, 2):
            pos = corpus.instances[k]
            assert pos.target_item not in pos.history_items
            assert corpus.item_cats[pos.target_item] == pos.target_cat

    def test_kth_unseen_matches_listing(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            seen = sorted(set(rng.integers(0, n, size=int(rng.integers(0, n))).tolist()))
            unseen = [p for p in range(n) if p not in seen]
            assert [_kth_unseen(seen, k) for k in range(len(unseen))] == unseen

    def test_used_up_category_rejected(self):
        # 20 items per category: a 50-step history can cover a whole one
        with pytest.raises(DegenerateError, match="no unseen items"):
            synth_generate(SynthConfig(seed=5, seq_len=50))

    def test_behavior_items_match_their_category(self):
        corpus = synth_generate(SynthConfig(n_users=100, seed=7))
        for inst in corpus.instances[:100]:
            for item, cat in zip(inst.history_items, inst.history_cats):
                assert corpus.item_cats[item] == cat

    def test_zero_drift_zero_noise_single_category(self):
        corpus = synth_generate(SynthConfig(n_users=50, n_items=40, n_cats=4,
                                            drift_prob=0.0, noise=0.0, seed=8))
        for inst in corpus.instances:
            assert len(set(inst.history_cats)) == 1

    def test_latent_switch_frequency(self):
        """With noise off the recorded categories are the latent chain, so
        the adjacent-step change rate estimates the drift probability."""
        corpus = synth_generate(SynthConfig(n_users=10000, noise=0.0, seed=9))
        changes = total = 0
        for inst in corpus.instances[::2]:
            cats = inst.history_cats
            changes += sum(a != b for a, b in zip(cats, cats[1:]))
            total += len(cats) - 1
        assert abs(changes / total - 0.3) < 0.02

    def test_observed_switch_frequency_under_noise(self):
        """At noise 0.1 with 10 categories each recorded category matches the
        latent one w.p. 0.91, else is one of the other nine at 0.01.  Adjacent
        records then differ w.p. 0.7*(1-0.91^2-9*0.01^2) + 0.3*(1-2*0.91*0.01
        - 8*0.01^2) = 0.414, independently of the chain's state."""
        corpus = synth_generate(SynthConfig(n_users=10000, seed=10))
        changes = total = 0
        for inst in corpus.instances[::2]:
            cats = inst.history_cats
            changes += sum(a != b for a, b in zip(cats, cats[1:]))
            total += len(cats) - 1
        assert abs(changes / total - 0.414) < 0.02

    @pytest.mark.parametrize("n_users", [300, 2000])
    def test_equals_its_round_trip(self, n_users, tmp_path):
        # the library trains on exactly the corpus `dien train` parses
        corpus = synth_generate(SynthConfig(n_users=n_users))
        save_corpus(corpus, tmp_path / "c.tsv")
        parsed = parse_corpus(tmp_path / "c.tsv")
        assert corpus.item_vocab.tokens() == parsed.item_vocab.tokens()
        assert corpus.cat_vocab.tokens() == parsed.cat_vocab.tokens()
        assert corpus.instances == parsed.instances
        np.testing.assert_array_equal(corpus.train_idx, parsed.train_idx)
        np.testing.assert_array_equal(corpus.test_idx, parsed.test_idx)
        np.testing.assert_array_equal(corpus.item_cats, parsed.item_cats)

    def test_provenance_recorded(self):
        corpus = synth_generate(SynthConfig(n_users=20, n_items=30, n_cats=3, seed=12))
        assert corpus.provenance["kind"] == "synthetic"
        assert corpus.provenance["seed"] == "12"
        assert corpus.provenance["split_seed"] == "0"

    def test_split_respects_fraction(self):
        assert TEST_FRACTION == 0.1
        corpus = synth_generate(SynthConfig(n_users=200, seed=13))
        assert len(corpus.test_idx) == 40  # 20 of 200 pairs
        assert len(corpus.train_idx) == 360
        assert len(corpus.test()) == 40


def numpy_rows(config: SynthConfig):
    """The generator's rows drawn from numpy's own Generator: the loop the
    generator ran before it replayed the draws, kept as the oracle."""
    rng = np.random.default_rng(config.seed)
    n_cats = config.n_cats
    for _ in range(config.n_users):
        latent = int(rng.integers(1, n_cats + 1))
        hist_items: list[int] = []
        hist_cats: list[int] = []
        for t in range(config.seq_len):
            if t > 0 and rng.random() < config.drift_prob:
                hop = int(rng.integers(1, n_cats))
                latent = hop if hop < latent else hop + 1
            cat = latent
            if rng.random() < config.noise:
                cat = int(rng.integers(1, n_cats + 1))
            pool = range(cat, config.n_items + 1, n_cats)
            hist_items.append(pool[int(rng.integers(len(pool)))])
            hist_cats.append(cat)

        pool = range(latent, config.n_items + 1, n_cats)
        seen = sorted({pool.index(i) for i in hist_items if i in pool})
        if len(seen) == len(pool):
            raise DegenerateError(f"category {latent} has no unseen items left for a target")
        pos_item = pool[_kth_unseen(seen, int(rng.integers(len(pool) - len(seen))))]
        neg_hop = int(rng.integers(1, n_cats))
        neg_cat = neg_hop if neg_hop < latent else neg_hop + 1
        neg_pool = range(neg_cat, config.n_items + 1, n_cats)
        neg_item = neg_pool[int(rng.integers(len(neg_pool)))]

        items, cats = tuple(f"i{i}" for i in hist_items), tuple(f"c{c}" for c in hist_cats)
        yield 1, f"i{pos_item}", f"c{latent}", items, cats
        yield 0, f"i{neg_item}", f"c{neg_cat}", items, cats


class TestSynthMatchesNumpy:
    @pytest.mark.parametrize("config", [
        SynthConfig(),
        SynthConfig(n_cats=2),  # every hop draws from range(1)
        SynthConfig(drift_prob=0.0, noise=0.0),
        SynthConfig(drift_prob=1.0, noise=1.0),
        SynthConfig(n_items=200_000, n_cats=1_000),
        SynthConfig(n_users=5_000, n_items=1_000, seq_len=50),  # the scoring benchmark's
        SynthConfig(n_users=2_000, n_items=2**40, n_cats=2),  # whole-word draws
        SynthConfig(n_users=2_000, n_items=3 * 2**31, n_cats=2),  # a quarter rejected
    ], ids=["default", "two-cats", "no-drift", "all-drift", "wide-vocab", "mixed-history",
            "64-bit", "rejecting"])
    def test_same_corpus_as_numpy_draws(self, config):
        got, want = synth_generate(config), _build_corpus(numpy_rows(config), 0, {})
        assert got.item_vocab.tokens() == want.item_vocab.tokens()
        assert got.cat_vocab.tokens() == want.cat_vocab.tokens()
        assert got.instances == want.instances
        np.testing.assert_array_equal(got.train_idx, want.train_idx)
        np.testing.assert_array_equal(got.test_idx, want.test_idx)
        np.testing.assert_array_equal(got.item_cats, want.item_cats)

    def test_same_degenerate_error_as_numpy_draws(self):
        config = SynthConfig(seed=5, seq_len=50)
        with pytest.raises(DegenerateError) as want:
            list(numpy_rows(config))
        with pytest.raises(DegenerateError) as got:
            synth_generate(config)
        assert str(got.value) == str(want.value)


class TestTruncate:
    def test_noop_below_limit(self):
        inst = Instance((1, 2, 3), (1, 1, 1), 4, 1, 1)
        assert truncate_history(inst, 50) is inst

    def test_keeps_most_recent(self):
        inst = Instance(tuple(range(1, 27)), tuple([1] * 26), 30, 1, 1)
        got = truncate_history(inst, 5)
        assert got.history_items == (22, 23, 24, 25, 26)

    def test_single_step_boundary(self):
        inst = Instance((5, 6, 7), (1, 2, 1), 9, 1, 0)
        got = truncate_history(inst, 1)
        assert got.history_items == (7,)
        assert got.history_cats == (1,)

    def test_bad_limit(self):
        with pytest.raises(DomainError):
            truncate_history(Instance((1,), (1,), 2, 1, 1), 0)
