"""Property tests of the checkpoint format: a saved model reads back bitwise,
and a damaged file fails as a library error, never as a Python one.

Runs derandomized and without an example database, so a run is repeatable."""

import json
import sys
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from dien.errors import ParseError  # noqa: E402
from dien.model import DienModel, ModelVariant  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "dien-hypothesis")
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def small_models(draw):
    """A freshly initialised model of any variant at toy sizes."""
    variant = draw(st.sampled_from(list(ModelVariant)))
    embed_dim = draw(st.integers(1, 3))
    hidden = 2 * embed_dim if variant.recurrent else draw(st.integers(1, 6))
    return DienModel.build(
        variant, draw(st.integers(3, 12)), draw(st.integers(2, 6)), embed_dim, hidden,
        draw(st.lists(st.integers(1, 5), max_size=2)),
        draw(st.floats(0.0, 10.0, allow_nan=False)), seed=draw(st.integers(0, 2**32 - 1)))


def saved(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        model.save(path)
        return path.read_bytes()


def loaded(raw: bytes) -> DienModel:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(raw)
        return DienModel.load(path)


def header_numbers(header: dict) -> list:
    """A path (a tuple of keys and indices) to every number in the header."""
    paths = [(k,) for k in ("version", "alpha", "embed_dim", "hidden_size",
                            "item_vocab", "cat_vocab")]
    paths += [("mlp_widths", k) for k in range(len(header["mlp_widths"]))]
    paths += [("arrays", k, 1, j) for k, (_, shape) in enumerate(header["arrays"])
              for j in range(len(shape))]
    return paths


# JSON texts a checkpoint header should never hold as a size or version
ODD_NUMBERS = st.one_of(
    st.integers(-10**6, -1).map(str),
    st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()).map(repr),
    st.just("1e999"),
    st.just("1" + "0" * 400),
    st.just("true"),
    st.just('"2"'),
)


def is_alpha(path, text) -> bool:
    """Whether `text` at `path` is a valid alpha: a finite, nonnegative JSON
    number, not a boolean or a string."""
    value = json.loads(text)
    return (path == ("alpha",) and type(value) in (int, float)
            and 0 <= value <= sys.float_info.max)


@PROPERTY
@given(small_models())
def test_round_trip_is_bitwise(model):
    raw = saved(model)
    back = loaded(raw)
    assert (back.variant, back.alpha, back.mlp_widths) == \
        (model.variant, model.alpha, model.mlp_widths)
    assert back.all_arrays().keys() == model.all_arrays().keys()
    for name, arr in model.all_arrays().items():
        assert back.all_arrays()[name].tobytes() == arr.tobytes(), name
    assert saved(back) == raw


@PROPERTY
@given(small_models(), st.data())
def test_every_truncation_is_a_parse_error(model, data):
    raw = saved(model)
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(ParseError):
        loaded(raw[:cut])


@PROPERTY
@given(small_models(), st.data(), ODD_NUMBERS)
def test_an_odd_header_number_loads_or_is_a_library_error(model, data, text):
    head, body = saved(model).split(b"\n", 1)
    header = json.loads(head)
    # version and alpha are two of dozens of numbers: draw them half the time
    path = data.draw(st.one_of(st.sampled_from([("version",), ("alpha",)]),
                               st.sampled_from(header_numbers(header))))
    *outer, last = path
    holder = header
    for key in outer:
        holder = holder[key]
    holder[last] = "<odd>"
    raw = json.dumps(header).replace('"<odd>"', text).encode() + b"\n" + body
    if not is_alpha(path, text):
        with pytest.raises(ParseError):
            loaded(raw)
        return
    # a valid alpha loads, and the model holds exactly the file's array bytes
    back = loaded(raw)
    assert back.alpha == json.loads(text)
    assert b"".join(a.tobytes() for a in back.all_arrays().values()) == body
