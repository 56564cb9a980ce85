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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateError, DomainError, ParseError, VocabularyError

PAD_TOKEN = "<pad>"
TEST_FRACTION = 0.1  # share of pair units held out for testing


class Vocab:
    """First-seen token-to-dense-id mapping with id 0 reserved for padding."""

    def __init__(self):
        self._tokens: list[str] = [PAD_TOKEN]
        self._ids: dict[str, int] = {PAD_TOKEN: 0}

    def add(self, token: str) -> int:
        """Return the token's id, assigning the next free one if new."""
        got = self._ids.get(token)
        if got is None:
            got = len(self._tokens)
            self._ids[token] = got
            self._tokens.append(token)
        return got

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise VocabularyError(f"id {idx} outside vocabulary of size {len(self._tokens)}")
        return self._tokens[idx]

    def __len__(self) -> int:
        return len(self._tokens)

    def tokens(self) -> list[str]:
        return list(self._tokens)


@dataclass
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
    train_idx: list[int]
    test_idx: list[int]
    item_cats: np.ndarray
    provenance: dict[str, str] = field(default_factory=dict)

    def train(self) -> list[Instance]:
        return [self.instances[i] for i in self.train_idx]

    def test(self) -> list[Instance]:
        return [self.instances[i] for i in self.test_idx]


def _pair_units(instances: list[Instance]) -> list[list[int]]:
    """Group adjacent instances sharing a history into split units."""
    units: list[list[int]] = []
    i = 0
    while i < len(instances):
        unit = [i]
        while (
            i + 1 < len(instances)
            and instances[i + 1].history_items == instances[i].history_items
            and instances[i + 1].history_cats == instances[i].history_cats
        ):
            i += 1
            unit.append(i)
        units.append(unit)
        i += 1
    return units


def _split_indices(instances, split_seed: int):
    units = _pair_units(instances)
    n_test = int(round(len(units) * TEST_FRACTION))
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(len(units))
    test_units = set(order[:n_test].tolist())
    train_idx: list[int] = []
    test_idx: list[int] = []
    for k, unit in enumerate(units):
        (test_idx if k in test_units else train_idx).extend(unit)
    return train_idx, test_idx


def _item_cat_table(instances, n_items: int) -> np.ndarray:
    cats = np.zeros(n_items, dtype=np.int64)
    for inst in instances:
        for item, cat in zip(inst.history_items, inst.history_cats):
            if cats[item] == 0:
                cats[item] = cat
        if cats[inst.target_item] == 0:
            cats[inst.target_item] = inst.target_cat
    return cats


def _decoded(fh, path):
    """The lines of a text file; a byte that is not UTF-8 is a ParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def parse_corpus(path, split_seed: int = 0) -> Corpus:
    """Load a tab-separated corpus file, building vocabularies first-seen.

    Malformed lines fail with their line number; an empty file is an error.
    The split holds out TEST_FRACTION of the pair units, deterministic in
    split_seed.
    """
    item_vocab = Vocab()
    cat_vocab = Vocab()
    instances: list[Instance] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(_decoded(fh, path), start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"{path}: line {lineno}: expected 5 fields, found {len(parts)}")
            label_s, target_item_s, target_cat_s, hist_items_s, hist_cats_s = parts
            if label_s not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: field 1: "
                                 f"label must be 0 or 1, got {label_s!r}")
            items = hist_items_s.split(",") if hist_items_s else []
            cats = hist_cats_s.split(",") if hist_cats_s else []
            if len(items) != len(cats):
                raise ParseError(
                    f"{path}: line {lineno}: field 4/5: {len(items)} history items vs "
                    f"{len(cats)} categories"
                )
            if not items:
                raise ParseError(f"{path}: line {lineno}: field 4: empty history")
            for field_no, tokens in enumerate(([target_item_s], [target_cat_s], items, cats), 2):
                if PAD_TOKEN in tokens:
                    raise ParseError(f"{path}: line {lineno}: field {field_no}: "
                                     f"{PAD_TOKEN} is the reserved padding token")
            target_item = item_vocab.add(target_item_s)
            target_cat = cat_vocab.add(target_cat_s)
            instances.append(Instance(
                history_items=tuple(item_vocab.add(tok) for tok in items),
                history_cats=tuple(cat_vocab.add(tok) for tok in cats),
                target_item=target_item,
                target_cat=target_cat,
                label=int(label_s),
            ))
    if not instances:
        raise ParseError(f"{path}: no instances found")
    train_idx, test_idx = _split_indices(instances, split_seed)
    return Corpus(
        item_vocab=item_vocab, cat_vocab=cat_vocab, instances=instances,
        train_idx=train_idx, test_idx=test_idx,
        item_cats=_item_cat_table(instances, len(item_vocab)),
        provenance={"kind": "file", "path": str(path), "split_seed": str(split_seed)},
    )


def save_corpus(corpus: Corpus, path) -> None:
    """Write instances back out in file order; inverse of parse_corpus."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in corpus.instances:
            fh.write("\t".join([
                str(inst.label),
                corpus.item_vocab.token_of(inst.target_item),
                corpus.cat_vocab.token_of(inst.target_cat),
                ",".join(corpus.item_vocab.token_of(i) for i in inst.history_items),
                ",".join(corpus.cat_vocab.token_of(c) for c in inst.history_cats),
            ]) + "\n")


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
        if self.n_items < 2 * self.n_cats:
            raise ConfigError(
                f"n_items={self.n_items} leaves no spare targets for "
                f"{self.n_cats} categories; need at least {2 * self.n_cats}"
            )
        for name in ("drift_prob", "noise"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")


def _category_of(item: int, n_cats: int) -> int:
    # items are dealt round-robin: category c owns ids c, c + n_cats, ...
    return (item - 1) % n_cats + 1


def _items_of_category(cat: int, n_items: int, n_cats: int) -> range:
    # a range, not a list: it is drawn from once per behaviour, and a range
    # costs the same to build and to index whatever the category's size
    return range(cat, n_items + 1, n_cats)


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
    config.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_cats = config.n_cats
    item_vocab = Vocab()
    cat_vocab = Vocab()
    for i in range(1, config.n_items + 1):
        item_vocab.add(f"i{i}")
    for c in range(1, n_cats + 1):
        cat_vocab.add(f"c{c}")

    instances: list[Instance] = []
    for _ in range(config.n_users):
        latent = int(rng.integers(1, n_cats + 1))
        hist_items: list[int] = []
        hist_cats: list[int] = []
        for t in range(config.seq_len):
            if t > 0 and rng.random() < config.drift_prob:
                # jump to a different category, uniform among the others
                hop = int(rng.integers(1, n_cats))
                latent = hop if hop < latent else hop + 1
            cat = latent
            if rng.random() < config.noise:
                cat = int(rng.integers(1, n_cats + 1))
            pool = _items_of_category(cat, config.n_items, n_cats)
            item = pool[int(rng.integers(len(pool)))]
            hist_items.append(item)
            hist_cats.append(cat)

        pool = _items_of_category(latent, config.n_items, n_cats)
        seen = sorted({pool.index(i) for i in hist_items if i in pool})
        if len(seen) == len(pool):
            raise DegenerateError(
                f"category {latent} has no unseen items left for a target"
            )
        pos_item = pool[_kth_unseen(seen, int(rng.integers(len(pool) - len(seen))))]
        neg_hop = int(rng.integers(1, n_cats))
        neg_cat = neg_hop if neg_hop < latent else neg_hop + 1
        neg_pool = _items_of_category(neg_cat, config.n_items, n_cats)
        neg_item = neg_pool[int(rng.integers(len(neg_pool)))]

        shared_items = tuple(hist_items)
        shared_cats = tuple(hist_cats)
        instances.append(Instance(shared_items, shared_cats, pos_item, latent, 1))
        instances.append(Instance(shared_items, shared_cats, neg_item, neg_cat, 0))

    train_idx, test_idx = _split_indices(instances, int(rng.integers(2**31)))
    item_cats = np.zeros(config.n_items + 1, dtype=np.int64)
    for i in range(1, config.n_items + 1):
        item_cats[i] = _category_of(i, n_cats)
    return Corpus(
        item_vocab=item_vocab, cat_vocab=cat_vocab, instances=instances,
        train_idx=train_idx, test_idx=test_idx, item_cats=item_cats,
        provenance={
            "kind": "synthetic", "seed": str(config.seed),
            "n_users": str(config.n_users), "n_items": str(config.n_items),
            "n_cats": str(n_cats), "seq_len": str(config.seq_len),
            "drift_prob": repr(config.drift_prob), "noise": repr(config.noise),
        },
    )


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
