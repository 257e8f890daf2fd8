"""The PGM decoder against a byte-at-a-time oracle, on crafted and mutated input.

refimpl.oracle_load_pgm reads one token per step and shares no code with
the package. Both must give the same Image or the same PgmError message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import Image, PgmError, load_pgm, save_pgm

from refimpl import oracle_load_pgm

WHITESPACE = b" \t\n\r\x0b\x0c"


def outcome(decode, data):
    try:
        return decode(data)
    except PgmError as exc:
        return f"PgmError: {exc}"


def assert_agrees(data: bytes):
    """The package decodes ``data`` as the oracle does; only PgmError escapes."""
    assert outcome(load_pgm, data) == outcome(oracle_load_pgm, data), data


# --- strategies ------------------------------------------------------------

comment_text = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"").replace(b"\r", b""))


@st.composite
def separator(draw):
    """Whitespace and comments; a comment ends at \\n, \\r or the end."""
    parts = draw(
        st.lists(
            st.one_of(
                st.sampled_from([bytes([c]) for c in WHITESPACE]),
                st.tuples(comment_text, st.sampled_from([b"\n", b"\r", b"\r\n"])).map(b"".join),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return b"".join(parts)


@st.composite
def sample_token(draw, maxval):
    """A decimal sample, sometimes with leading zeros."""
    return b"0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, maxval))).encode()


@st.composite
def p2_encoding(draw):
    """(P2 bytes, the image they encode)."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    maxval = draw(st.integers(1, 255))
    tokens = [draw(sample_token(maxval)) for _ in range(width * height)]
    out = b"P2" + draw(separator())
    for number in (width, height, maxval):
        out += str(number).encode() + draw(separator())
    for token in tokens:
        # a comment may follow a sample with no whitespace between them
        glued = draw(st.booleans()) and draw(comment_text)
        out += token + (glued + draw(st.sampled_from([b"\n", b"\r"])) if glued else draw(separator()))
    # trailing data: nothing, junk, or more samples than the header asks for
    extra = st.lists(st.integers(0, 999), max_size=3).map(lambda v: b" ".join(b"%d" % n for n in v))
    out += draw(st.one_of(st.just(b""), st.binary(max_size=8), extra))
    return out, Image(np.reshape([int(t) for t in tokens], (height, width)), maxval)


@st.composite
def valid_pgm(draw):
    """A P5 file from save_pgm or a P2 file with crafted spacing."""
    if draw(st.booleans()):
        return draw(p2_encoding())[0]
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    maxval = draw(st.integers(1, 255))
    flat = draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height))
    return save_pgm(Image(np.reshape(flat, (height, width)), maxval))


@st.composite
def mutated_pgm(draw):
    data = bytearray(draw(valid_pgm()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "splice", "flip", "inflate"]))
        # counted from either end, so the raster is hit as often as the header
        pos = draw(st.integers(0, len(data)))
        pos = len(data) - pos if draw(st.booleans()) else pos
        if kind == "truncate":
            del data[pos:]
        elif kind == "splice":
            end = draw(st.integers(pos, min(len(data), pos + 4)))
            special = st.sampled_from([b"#", b"-", b"+", b"_", b"\x00", b"9" * 20])
            junk = draw(st.one_of(st.binary(max_size=4), special))
            data[pos:end] = junk
        elif kind == "flip" and data:
            index = min(pos, len(data) - 1)
            data[index] ^= draw(st.integers(1, 255))
        elif kind == "inflate":
            # grow the first header number at or after pos
            digits = [i for i in range(pos, min(len(data), 20)) if 48 <= data[i] <= 57]
            if digits:
                data[digits[0] : digits[0]] = draw(st.sampled_from([b"9", b"99999", b"1" * 25, b"1" * 5000]))
    return bytes(data)


# --- the differential fuzz -----------------------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=p2_encoding())
def test_crafted_p2_matches_oracle(case):
    data, img = case
    assert load_pgm(data) == img
    assert_agrees(data)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=mutated_pgm())
def test_mutated_pgm_matches_oracle(data):
    assert_agrees(data)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    data=st.data(),
    max_value=st.integers(1, 255),
)
def test_save_then_load_is_identity(data, max_value):
    width, height = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    img = Image(np.reshape(flat, (height, width)), max_value)
    assert load_pgm(save_pgm(img)) == img


# --- named traps ---------------------------------------------------------


@pytest.mark.parametrize(
    "data",
    [
        b"P2 1 1 255 \n\t \x0b\x0c\r",  # blank raster: np.fromstring reads it as [0]
        b"P2 1 1 255\n",
        b"P2 1 1 255 # only\n",
        b"P2 1 1 255 # only",
        b"P2 1 1 255",  # nothing after maxval
    ],
)
def test_blank_raster_has_no_samples(data):
    with pytest.raises(PgmError, match=r"^truncated pixel data: expected 1 samples, got 0$"):
        load_pgm(data)
    assert_agrees(data)


def test_comment_after_maxval_leaves_no_whitespace_before_raster():
    # the comment ends maxval, and the raster must still follow one whitespace byte
    data = b"P5 1 1 255#c\n\n\x07"
    with pytest.raises(PgmError, match=r"^malformed header: missing whitespace before raster$"):
        load_pgm(data)
    assert_agrees(data)


@pytest.mark.parametrize("body", [b"1 2", b"1 2 \n"])
def test_short_raster_counts_its_samples(body):
    # np.fromstring with count= larger than the data would return garbage
    with pytest.raises(PgmError, match=r"^truncated pixel data: expected 3 samples, got 2$"):
        load_pgm(b"P2 3 1 255\n" + body)


@pytest.mark.parametrize("tail", [b" 3 4\n", b" +3 x"])  # more samples, or tokens that are none
def test_samples_past_the_raster_are_ignored(tail):
    assert load_pgm(b"P2 2 1 255\n1 2" + tail).pixels.tolist() == [[1, 2]]


@pytest.mark.parametrize("body", [b"1 2 3", b"1 +2 3", b"1 x 3"])
def test_count_beyond_sys_maxsize(body):
    # width * height > sys.maxsize must reach no index or count argument
    side = 10**20
    data = b"P2 %d %d 255\n" % (side, side) + body
    assert_agrees(data)
    with pytest.raises(PgmError):
        load_pgm(data)


@pytest.mark.parametrize("sample", [b"99999999999999999999", b"1" * 5000], ids=["20-digit", "5000-digit"])
def test_sample_beyond_int64_is_out_of_range(sample):
    # a run beyond int64 reads as the int64 maximum, however long it is,
    # and so is a number out of range
    for data in (b"P2 1 1 255 " + sample, b"P2 2 1 255 " + sample + b" 1"):
        with pytest.raises(PgmError, match=r"^sample value outside \[0, 255\]$"):
            load_pgm(data)
        assert_agrees(data)


def test_malformed_sample_wins_over_overflow_and_truncation():
    # the oracle reports the first bad token before it runs out of samples
    data = b"P2 4 1 255 99999999999999999999 1_ 7"
    with pytest.raises(PgmError, match=r"^malformed sample: b'1_'$"):
        load_pgm(data)
    assert_agrees(data)


@pytest.mark.parametrize("token", [b"007", b"000"])
def test_int_literal_forms_accepted(token):
    data = b"P2 2 1 255 " + token + b" 3"
    assert load_pgm(data).pixels.tolist() == [[int(token), 3]]
    assert_agrees(data)


@pytest.mark.parametrize(
    "token",
    [b"1.0", b"0x1", b"1__0", b"_1", b"1_", b"\xd9\xa1", b"+", b"1e2"]
    # int() literals: a PGM number is a run of ASCII digits, as netpbm reads it
    + [b"+7", b"-0", b"-5", b"1_0", b"0_0_7", b"+99999999999999999999", b"-99999999999999999999"],
)
def test_non_integer_token_is_malformed(token):
    with pytest.raises(PgmError, match=r"^malformed sample: "):
        load_pgm(b"P2 2 1 255 3 " + token)
    assert_agrees(b"P2 2 1 255 3 " + token)


@pytest.mark.parametrize(
    "header",
    [b"P2 +2 1 255", b"P2 2 -1 255", b"P2 2 1 +255"],
    ids=["plus-width", "minus-height", "plus-maxval"],
)
def test_header_number_is_a_run_of_digits(header):
    with pytest.raises(PgmError, match=r"^malformed header: (width|height|maxval) is not a number: "):
        load_pgm(header + b" 1 2")
    assert_agrees(header + b" 1 2")


@pytest.mark.parametrize("magic, raster", [(b"P5", b"\n\x01\x02"), (b"P2", b" 1 2")], ids=["P5", "P2"])
def test_zero_padded_header_numbers_decode(magic, raster):
    # leading zeros are free: 5000 of them leave a small number, in the
    # header as in a P2 sample
    zeros = b"0" * 5000
    data = magic + b" " + zeros + b"2 " + zeros + b"1 " + zeros + b"255" + raster
    img = load_pgm(data)
    assert (img.width, img.height, img.max_value) == (2, 1, 255)
    assert img.pixels.tolist() == [[1, 2]]
    assert_agrees(data)


# 4000 ones read as the int64 maximum, and width * height as its square
_SIDE = b"1" * 4000


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5 " + b"1" * 5000 + b" 1 255 1 2", "truncated pixel data: expected 9223372036854775807 bytes, got 3"),
        (
            b"P5 " + _SIDE + b" " + _SIDE + b" 255\n\x01\x02",
            "truncated pixel data: expected 85070591730234615847396907784232501249 bytes, got 2",
        ),
        (
            b"P2 " + _SIDE + b" " + _SIDE + b" 255 1 2",
            "truncated pixel data: expected 85070591730234615847396907784232501249 samples, got 2",
        ),
        (b"P5 1 1 " + b"1" * 5000 + b"\n\x01", "maxval out of range (want 1..255): 9223372036854775807"),
    ],
    ids=["5000-digit-width", "4000-digit-sides-P5", "4000-digit-sides-P2", "5000-digit-maxval"],
)
def test_header_number_beyond_int64_reads_as_its_maximum(data, message):
    # a header number is read as a P2 sample is; a run beyond int64, however
    # long, reads as the int64 maximum and fails as a number out of range
    with pytest.raises(PgmError) as info:
        load_pgm(data)
    assert str(info.value) == message
    assert_agrees(data)
