"""Corpus ingestion and synthesis.

Wire format: one instance per line, five tab-separated fields

    label <TAB> target_item <TAB> target_cat <TAB> history_items <TAB> history_cats

where the history fields are comma-joined opaque tokens, oldest first.  A
positive line is immediately followed by its paired negative (same history,
label 0); the train/test split keeps such pairs together so a user's test
target never leaks into a training history.

The synthetic generator plants a drifting latent interest per user: the
interest category follows a Markov chain that jumps to a different category
with probability drift_prob at each step, behaviors follow the current
interest up to a noise rate, and the click target is drawn from the final
interest while the paired non-click comes from some other category.  The
planted drift gives desk-scale experiments a ground truth that rewards
models which track interest movement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateError, DomainError, ParseError, VocabularyError

PAD_TOKEN = "<pad>"
TEST_FRACTION = 0.1  # share of pair units held out for testing


class _Numbering(dict):
    """Token-to-id dict whose lookup of a new token appends it to `tokens`
    and returns its id; a known token is numbered without entering Python.
    It starts with the padding token at id 0."""

    def __init__(self):
        super().__init__({PAD_TOKEN: 0})
        self.tokens: list[str] = [PAD_TOKEN]

    def __missing__(self, token):
        got = self[token] = len(self.tokens)
        self.tokens.append(token)
        return got


class Vocab:
    """The tokens of a corpus in id order, id 0 the padding token.

    Only the token list is held; the token-to-id index that `id_of` needs
    is built on its first call.
    """

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._ids: dict[str, int] | None = None

    def id_of(self, token: str) -> int:
        if self._ids is None:
            self._ids = dict(zip(self._tokens, range(len(self._tokens))))
        got = self._ids.get(token)
        if got is None:
            raise VocabularyError(f"unknown token {token!r}")
        return got

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise VocabularyError(f"id {idx} outside vocabulary of size {len(self._tokens)}")
        return self._tokens[idx]

    def __len__(self) -> int:
        return len(self._tokens)

    def tokens(self) -> list[str]:
        return list(self._tokens)


@dataclass(slots=True)
class Instance:
    """One labeled example: a behavior history and a candidate target."""

    history_items: tuple[int, ...]
    history_cats: tuple[int, ...]
    target_item: int
    target_cat: int
    label: int

    def __post_init__(self):
        if len(self.history_items) != len(self.history_cats):
            raise ParseError(
                f"history misaligned: {len(self.history_items)} items vs "
                f"{len(self.history_cats)} categories"
            )
        if len(self.history_items) == 0:
            raise ParseError("empty history")
        if self.label not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class Corpus:
    """Instances in file order plus the seeded pairwise train/test split.

    item_cats maps each item id to its category id (first seen wins) and
    backs the negative behavior draws of the next-behavior loss.
    """

    item_vocab: Vocab
    cat_vocab: Vocab
    instances: list[Instance]
    train_idx: np.ndarray  # both int64 row numbers, ascending
    test_idx: np.ndarray
    item_cats: np.ndarray
    provenance: dict[str, str] = field(default_factory=dict)

    def train(self) -> list[Instance]:
        return [self.instances[i] for i in self.train_idx]

    def test(self) -> list[Instance]:
        return [self.instances[i] for i in self.test_idx]


def _build_corpus(rows, split_seed: int, provenance: dict) -> Corpus:
    """The one way a Corpus is made, from token rows in file order.

    Each row is (label, target item, target category, history items,
    history categories).  Tokens are numbered first-seen in that order
    within a row.  A row whose history equals the previous row's shares its
    id tuples and its split unit, so a click and its paired non-click stay
    on one side; TEST_FRACTION of the units are held out, deterministic in
    split_seed.  item_cats takes each item's category at its first
    appearance, a row's history before its target.
    """
    if split_seed < 0:
        raise ConfigError(f"split_seed must not be negative, got {split_seed}")
    item_ids, cat_ids = _Numbering(), _Numbering()  # freed with the build
    item_id, cat_id = item_ids.__getitem__, cat_ids.__getitem__
    instances: list[Instance] = []
    unit_starts: list[int] = []  # the first row of each split unit
    item_seq: list[int] = []  # item and category ids in order of appearance
    cat_seq: list[int] = []
    history = None
    for label, target_item, target_cat, hist_items, hist_cats in rows:
        target = item_id(target_item), cat_id(target_cat)
        if (hist_items, hist_cats) != history:
            history = hist_items, hist_cats
            ids = tuple(map(item_id, hist_items)), tuple(map(cat_id, hist_cats))
            item_seq += ids[0]
            cat_seq += ids[1]
            unit_starts.append(len(instances))
        item_seq.append(target[0])
        cat_seq.append(target[1])
        instances.append(Instance(*ids, *target, label))

    n_units = len(unit_starts)
    order = np.random.default_rng(split_seed).permutation(n_units)
    held_out = np.zeros(n_units, dtype=bool)
    held_out[order[:int(round(n_units * TEST_FRACTION))]] = True
    row_held_out = np.repeat(held_out, np.diff(unit_starts, append=len(instances)))
    # read backwards, a dict keeps each item's first category
    firsts = dict(zip(reversed(item_seq), reversed(cat_seq)))
    item_cats = np.zeros(len(item_ids), dtype=np.int64)
    item_cats[list(firsts)] = list(firsts.values())
    return Corpus(
        item_vocab=Vocab(item_ids.tokens), cat_vocab=Vocab(cat_ids.tokens),
        instances=instances, train_idx=np.flatnonzero(~row_held_out),
        test_idx=np.flatnonzero(row_held_out), item_cats=item_cats,
        provenance={**provenance, "split_seed": str(split_seed)},
    )


def _decoded(fh, path):
    """The lines of a text file; a byte that is not UTF-8 is a ParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _file_rows(path):
    """The validated token rows of a corpus file.  Malformed lines fail
    with their line number; a file without rows is an error."""
    history_fields = items = cats = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(_decoded(fh, path), start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"{path}: line {lineno}: expected 5 fields, found {len(parts)}")
            label_s, target_item, target_cat, *fields = parts
            if label_s not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: field 1: "
                                 f"label must be 0 or 1, got {label_s!r}")
            checked = [target_item], [target_cat]  # a reused history was checked once
            if fields != history_fields:  # a pair's second line reuses the first's lists
                items = fields[0].split(",") if fields[0] else []
                cats = fields[1].split(",") if fields[1] else []
                if len(items) != len(cats):
                    raise ParseError(
                        f"{path}: line {lineno}: field 4/5: {len(items)} history items vs "
                        f"{len(cats)} categories"
                    )
                if not items:
                    raise ParseError(f"{path}: line {lineno}: field 4: empty history")
                checked += items, cats
            for field_no, tokens in enumerate(checked, 2):
                if PAD_TOKEN in tokens:
                    raise ParseError(f"{path}: line {lineno}: field {field_no}: "
                                     f"{PAD_TOKEN} is the reserved padding token")
            history_fields = fields
            yield int(label_s), target_item, target_cat, items, cats
    if history_fields is None:
        raise ParseError(f"{path}: no instances found")


def parse_corpus(path, split_seed: int = 0) -> Corpus:
    """Load a tab-separated corpus file, building vocabularies first-seen.

    Malformed lines fail with their line number; an empty file is an error.
    The split holds out TEST_FRACTION of the pair units, deterministic in
    split_seed.
    """
    return _build_corpus(_file_rows(path), split_seed, {"kind": "file", "path": str(path)})


def _joined(tokens: list, ids) -> str:
    """The comma-joined tokens of a nonempty id sequence."""
    try:
        if min(ids) >= 0:  # a negative index would wrap silently
            return ",".join(map(tokens.__getitem__, ids))
    except IndexError:
        pass
    bad = next(i for i in ids if not 0 <= i < len(tokens))
    raise VocabularyError(f"id {bad} outside vocabulary of size {len(tokens)}")


def save_corpus(corpus: Corpus, path) -> None:
    """Write instances back out in file order; inverse of parse_corpus.

    Tokens are read from copies of the vocabularies' lists.  A history equal
    to the previous instance's, as a pair's is, is joined once.
    """
    item_tokens, cat_tokens = corpus.item_vocab.tokens(), corpus.cat_vocab.tokens()

    def lines():
        history = None
        for inst in corpus.instances:
            if (inst.history_items, inst.history_cats) != history:
                history = inst.history_items, inst.history_cats
                fields = _joined(item_tokens, history[0]) + "\t" + _joined(cat_tokens, history[1])
            item, cat = inst.target_item, inst.target_cat
            if not (0 <= item < len(item_tokens) and 0 <= cat < len(cat_tokens)):
                _joined(item_tokens, (item,))
                _joined(cat_tokens, (cat,))  # one of the two raises
            yield f"{inst.label}\t{item_tokens[item]}\t{cat_tokens[cat]}\t{fields}\n"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines())


@dataclass
class SynthConfig:
    """Knobs of the planted-interest generator; all draws come from `seed`."""

    n_users: int = 10000
    n_items: int = 200
    n_cats: int = 10
    seq_len: int = 10
    drift_prob: float = 0.3
    noise: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.n_cats < 2:
            raise ConfigError(f"n_cats must be at least 2, got {self.n_cats}")
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be at least 2, got {self.seq_len}")
        if self.n_users < 1:
            raise ConfigError(f"n_users must be positive, got {self.n_users}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.n_items > np.iinfo(np.int64).max:
            raise ConfigError(f"n_items={self.n_items} is more than an int64 id can name")
        if self.n_items < 2 * self.n_cats:
            raise ConfigError(
                f"n_items={self.n_items} leaves no spare targets for "
                f"{self.n_cats} categories; need at least {2 * self.n_cats}"
            )
        for name in ("drift_prob", "noise"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")


def _replay(seed: int):
    """numpy's `default_rng(seed).random()` and `.integers(k)`, value for
    value, computed from the raw PCG64 words without a Generator call's
    microsecond each.  As numpy does: `random()` is a word's top 53 bits
    over 2**53; `integers(1)` draws nothing; other k take Lemire's rejection
    method (arXiv 1805.10941), on whole words above 2**32 and otherwise on a
    fresh word's low half, then its kept high half, even across `random()`."""
    bits = np.random.PCG64(seed)  # read 4,096 words a call, without end
    word = itertools.chain.from_iterable(iter(lambda: bits.random_raw(4096).tolist(), 0)).__next__
    half = None  # the kept high half of the last 32-bit draw's word

    def random() -> float:
        return (word() >> 11) * 2.0**-53

    def integers(k: int) -> int:
        nonlocal half
        if k > 1 << 32:
            while (m := word() * k) & 0xFFFFFFFFFFFFFFFF < ((1 << 64) - k) % k:
                pass
            return m >> 64
        if k == 1:
            return 0
        while True:
            if half is None:
                w = word()
                low, half = w & 0xFFFFFFFF, w >> 32
            else:
                low, half = half, None
            m = low * k
            if m & 0xFFFFFFFF >= ((1 << 32) - k) % k:
                return m >> 32

    return random, integers


def _kth_unseen(seen: list, k: int) -> int:
    """Position of the k-th (from 0) unseen slot, given the sorted seen
    positions: the unseen slots are never listed, so a category's size
    does not matter."""
    for position in seen:
        if position > k:
            break
        k += 1
    return k


def synth_generate(config: SynthConfig) -> Corpus:
    """Generate a corpus with a planted drifting interest per user.

    Labels are balanced exactly 50/50 by pairing, the positive target never
    sits in its own history, and the whole corpus is a pure function of the
    config.  Items are the tokens i1..i<n_items>, categories c1..c<n_cats>,
    and the corpus is built as parse_corpus builds its saved file, split at
    split_seed 0.
    """
    config.validate()
    return _build_corpus(_synth_rows(config), 0, {
        "kind": "synthetic", "seed": str(config.seed),
        "n_users": str(config.n_users), "n_items": str(config.n_items),
        "n_cats": str(config.n_cats), "seq_len": str(config.seq_len),
        "drift_prob": repr(config.drift_prob), "noise": repr(config.noise),
    })


def _synth_rows(config: SynthConfig):
    """The generator's token rows: per user a click, then its non-click."""
    random, integers = _replay(config.seed)
    n_items, n_cats = config.n_items, config.n_cats
    # each category's items, built once: a range costs the same at any size
    pools = functools.cache(lambda cat: range(cat, n_items + 1, n_cats))
    # memoised: a known id's token costs a C-level dict lookup, not a format
    item_token, cat_token = functools.cache("i{}".format), functools.cache("c{}".format)
    for _ in range(config.n_users):
        latent = 1 + integers(n_cats)
        hist_items: list[int] = []
        hist_cats: list[int] = []
        for t in range(config.seq_len):
            if t > 0 and random() < config.drift_prob:
                # jump to a different category, uniform among the others
                hop = 1 + integers(n_cats - 1)
                latent = hop if hop < latent else hop + 1
            cat = latent
            if random() < config.noise:
                cat = 1 + integers(n_cats)
            pool = pools(cat)
            hist_items.append(pool[integers(len(pool))])
            hist_cats.append(cat)

        pool = pools(latent)
        seen = sorted({pool.index(i) for i in hist_items if i in pool})
        if len(seen) == len(pool):
            raise DegenerateError(
                f"category {latent} has no unseen items left for a target"
            )
        pos_item = pool[_kth_unseen(seen, integers(len(pool) - len(seen)))]
        neg_hop = 1 + integers(n_cats - 1)
        neg_cat = neg_hop if neg_hop < latent else neg_hop + 1
        neg_pool = pools(neg_cat)
        neg_item = neg_pool[integers(len(neg_pool))]

        items, cats = tuple(map(item_token, hist_items)), tuple(map(cat_token, hist_cats))
        yield 1, item_token(pos_item), cat_token(latent), items, cats
        yield 0, item_token(neg_item), cat_token(neg_cat), items, cats


def truncate_history(instance: Instance, max_len: int) -> Instance:
    """Keep only the most recent max_len behaviors."""
    if max_len < 1:
        raise DomainError(f"max_len must be at least 1, got {max_len}")
    if len(instance.history_items) <= max_len:
        return instance
    return Instance(
        history_items=instance.history_items[-max_len:],
        history_cats=instance.history_cats[-max_len:],
        target_item=instance.target_item,
        target_cat=instance.target_cat,
        label=instance.label,
    )
