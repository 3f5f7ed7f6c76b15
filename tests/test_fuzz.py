"""Fuzzing of the two text parsers: any input either parses or is rejected
with a DatasetError/ValueError, never another exception or a RuntimeWarning."""
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from nvrelax.core import BUILTIN_TAG, DatasetError, load_dataset, parse_dataset_text
from nvrelax.spectral import anchor_coupling_table, parse_coupling_text

# field values that sit on a validation edge or trip a naive float/int parse
_TOKENS = ["", " ", ",", "\n", "#", "\r", "\x00", "nan", "NaN", "inf", "-inf", "1e400",
           "-1e400", "1e-400", "1e308", "0", "-0", "-1", "0x10", "1_000", "1e", ".",
           "١٢", " ", "sq", "dq", "3", "250.0000001", "9" * 5000]

_DATASET_TEXT = "\n".join(load_dataset(BUILTIN_TAG).to_csv_text().splitlines()[:6]) + "\n"
_COUPLING_TEXT = anchor_coupling_table().to_csv_text()


@st.composite
def _mutated(draw, base: str) -> str:
    """``base`` with a few spans replaced by edge tokens or arbitrary text."""
    text = base
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        piece = draw(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=8)))
        text = text[:i] + piece + text[j:]
    return text


def _parses_or_rejects(parse, text, errors):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse(text)
        except errors:
            pass


_FUZZ = settings(max_examples=150, deadline=None)


class TestDatasetParserFuzz:
    @_FUZZ
    @given(text=st.text(max_size=300))
    def test_arbitrary_text(self, text):
        _parses_or_rejects(parse_dataset_text, text, DatasetError)

    @_FUZZ
    @given(text=_mutated(_DATASET_TEXT))
    def test_mutated_valid_csv(self, text):
        _parses_or_rejects(parse_dataset_text, text, DatasetError)


class TestCouplingParserFuzz:
    @_FUZZ
    @given(text=st.text(max_size=300))
    def test_arbitrary_text(self, text):
        _parses_or_rejects(parse_coupling_text, text, ValueError)

    @_FUZZ
    @given(text=_mutated(_COUPLING_TEXT))
    def test_mutated_valid_csv(self, text):
        _parses_or_rejects(parse_coupling_text, text, ValueError)
