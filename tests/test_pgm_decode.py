"""The PGM decoder against a byte-at-a-time oracle, on crafted, mutated and named input.

refimpl.oracle_load_pgm reads one token per step and shares no code with
the package. Both must give the same Image or the same PgmError message.
A named case is one row of CASES: its bytes and its exact outcome. The
fuzzers also decode inside band_bytes(1), where the P2 text is read in
one-byte chunks, each stretched to the token's end, so every token and
every comment is its own chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import Image, PgmError, load_pgm, save_pgm

from conftest import band_bytes
from refimpl import oracle_load_pgm

WHITESPACE = b" \t\n\r\x0b\x0c"


def outcome(decode, data):
    """The Image ``decode`` returns for ``data``, or its PgmError's message."""
    try:
        return decode(data)
    except PgmError as exc:
        return str(exc)


def assert_agrees(data: bytes):
    """The package decodes ``data`` as the oracle does; only PgmError escapes."""
    assert outcome(load_pgm, data) == outcome(oracle_load_pgm, data), data


def assert_agrees_in_any_chunks(data: bytes):
    """assert_agrees at the default chunk size and in one-byte chunks."""
    assert_agrees(data)
    with band_bytes(1):
        assert_agrees(data)


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
    """A decimal sample with up to 4 leading zeros; one in 16 has 4 to 6
    significant digits, which no maxval admits."""
    value = draw(st.integers(1000, 999_999)) if draw(st.integers(0, 15)) == 0 else draw(st.integers(0, maxval))
    return b"0" * draw(st.integers(0, 4)) + str(value).encode()


@st.composite
def p2_encoding(draw):
    """(P2 bytes, the image they encode or the message of the PgmError
    that a sample out of range raises)."""
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
    values = [int(t) for t in tokens]
    if max(values) > maxval:
        return out, f"sample value outside [0, {maxval}]"
    return out, Image(np.reshape(values, (height, width)), maxval)


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


@settings(max_examples=150)
@given(case=p2_encoding())
def test_crafted_p2_matches_oracle(case):
    data, expected = case
    assert outcome(load_pgm, data) == expected
    assert_agrees_in_any_chunks(data)


@settings(max_examples=250)
@given(data=mutated_pgm())
def test_mutated_pgm_matches_oracle(data):
    assert_agrees_in_any_chunks(data)


@settings(max_examples=60)
@given(
    data=st.data(),
    max_value=st.integers(1, 255),
)
def test_save_then_load_is_identity(data, max_value):
    width, height = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    img = Image(np.reshape(flat, (height, width)), max_value)
    assert load_pgm(save_pgm(img)) == img


# --- named cases ---------------------------------------------------------

# 4000 ones read as the int64 maximum, and width * height as its square
_SIDE = b"1" * 4000
_SQUARE = 85070591730234615847396907784232501249
_ZEROS = b"0" * 5000
_HUGE_P2 = b"P2 %d %d 255\n" % (10**20, 10**20)

# (id, data, the Image it decodes to or the message of the PgmError it raises)
CASES = [
    # --- files that decode
    ("p5", b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]), Image([[10, 20], [30, 40]])),
    ("p2", b"P2 1 1 255 7", Image([[7]])),
    ("p2-comments", b"P2\n# a comment\n2 2 # trailing\n100\n0 1\n2 3\n", Image([[0, 1], [2, 3]], 100)),
    ("p5-comments", b"P5 # comment\n2 1 # another\n255\n" + bytes([9, 8]), Image([[9, 8]])),
    ("p5-trailing-bytes", b"P5\n1 1\n255\n\x07\n", Image([[7]])),
    # a comment ends at CR as well as at LF, and a 1 MiB one decodes in one regex match
    ("p5-no-comment", b"P5 2 1 255\n" + bytes([9, 8]), Image([[9, 8]])),
    ("p5-comment-cr", b"P5\n# ends in CR\r2 1\n255\n" + bytes([9, 8]), Image([[9, 8]])),
    ("p5-comment-glued-cr", b"P5 2#glued\r1\n255\n" + bytes([9, 8]), Image([[9, 8]])),
    ("p5-comment-1MiB", b"P5 #" + b"x" * (1 << 20) + b"\n2 1\n255\n" + bytes([9, 8]), Image([[9, 8]])),
    ("p2-no-comment", b"P2 2 1 255\n9 8", Image([[9, 8]])),
    ("p2-comment-at-eof", b"P2 2 1 255\n9 8# at EOF", Image([[9, 8]])),
    ("p2-comment-cr", b"P2 2 1 255\n9# at EOF\r8", Image([[9, 8]])),
    ("p2-comment-1MiB-at-eof", b"P2 2 1 255\n9 8#" + b"x" * (1 << 20), Image([[9, 8]])),
    ("p2-comment-1MiB-cr", b"P2 2 1 255\n9#" + b"x" * (1 << 20) + b"\r8", Image([[9, 8]])),
    # leading zeros are free: 5000 of them leave a small number, in the
    # header as in a P2 sample
    ("zero-padded-header-P5", b"P5 " + _ZEROS + b"2 " + _ZEROS + b"1 " + _ZEROS + b"255\n\x01\x02", Image([[1, 2]])),
    ("zero-padded-header-P2", b"P2 " + _ZEROS + b"2 " + _ZEROS + b"1 " + _ZEROS + b"255 1 2", Image([[1, 2]])),
    ("sample-007", b"P2 2 1 255 007 3", Image([[7, 3]])),
    ("sample-000", b"P2 2 1 255 000 3", Image([[0, 3]])),
    # a run's value is not its last three digits
    ("sample-0000255", b"P2 1 1 255 0000255", Image([[255]])),
    # samples past the raster are ignored: more samples, or tokens that are none
    ("p2-more-samples", b"P2 2 1 255\n1 2 3 4\n", Image([[1, 2]])),
    ("p2-1000-past-raster", b"P2 2 1 255\n1 2 1000\n", Image([[1, 2]])),
    ("p2-tokens-past-raster", b"P2 2 1 255\n1 2 +3 x", Image([[1, 2]])),
    # --- the header
    ("empty", b"", "empty or unreadable PGM data"),
    ("comment-only", b"  # c\n", "empty or unreadable PGM data"),
    ("bad-magic", b"JUNK", "bad magic number b'JUNK': not a PGM file"),
    ("color-ppm", b"P6\n1 1\n255\n\x00\x00\x00", "unsupported color PPM format P6"),
    ("zero-width", b"P5\n0 4\n255\n", "dimensions out of range: 0x4"),
    ("maxval-65535", b"P5\n1 1\n65535\n\x00\x00", "maxval out of range (want 1..255): 65535"),
    ("header-comment-at-eof", b"P5 2 1 # no maxval", "truncated header: expected another token"),
    ("plus-width", b"P2 +2 1 255 1 2", "malformed header: width is not a number: b'+2'"),
    ("minus-height", b"P2 2 -1 255 1 2", "malformed header: height is not a number: b'-1'"),
    ("plus-maxval", b"P2 2 1 +255 1 2", "malformed header: maxval is not a number: b'+255'"),
    # a header number is read as a P2 sample is; a run beyond int64, however
    # long, reads as the int64 maximum and fails as a number out of range
    (
        "5000-digit-width",
        b"P5 " + b"1" * 5000 + b" 1 255 1 2",
        "truncated pixel data: expected 9223372036854775807 bytes, got 3",
    ),
    (
        "4000-digit-sides-P5",
        b"P5 " + _SIDE + b" " + _SIDE + b" 255\n\x01\x02",
        f"truncated pixel data: expected {_SQUARE} bytes, got 2",
    ),
    (
        "4000-digit-sides-P2",
        b"P2 " + _SIDE + b" " + _SIDE + b" 255 1 2",
        f"truncated pixel data: expected {_SQUARE} samples, got 2",
    ),
    (
        "5000-digit-maxval",
        b"P5 1 1 " + b"1" * 5000 + b"\n\x01",
        "maxval out of range (want 1..255): 9223372036854775807",
    ),
    # the comment ends maxval, and the raster must still follow one whitespace byte
    ("p5-comment-after-maxval", b"P5 1 1 255#c\n\n\x07", "malformed header: missing whitespace before raster"),
    # --- the P5 raster
    ("p5-truncated", b"P5\n2 2\n255\n\x01\x02", "truncated pixel data: expected 4 bytes, got 2"),
    ("p5-0-bytes", b"P5 2 2 255", "truncated pixel data: expected 4 bytes, got 0"),
    ("p5-0-bytes-after-newline", b"P5 2 2 255\n", "truncated pixel data: expected 4 bytes, got 0"),
    ("p5-1-byte", b"P5 2 2 255\n\x01", "truncated pixel data: expected 4 bytes, got 1"),
    ("p5-3-bytes", b"P5 2 2 255\n\x01\x02\x03", "truncated pixel data: expected 4 bytes, got 3"),
    ("p5-byte-101", b"P5 2 1 100\n\x64\x65", "sample value outside [0, 100]"),
    # --- P2 samples
    ("p2-truncated", b"P2\n2 2\n255\n1 2 3", "truncated pixel data: expected 4 samples, got 3"),
    # a raster shorter than the header's count is truncated, never padded
    ("p2-short-raster", b"P2 3 1 255\n1 2", "truncated pixel data: expected 3 samples, got 2"),
    ("p2-short-raster-newline", b"P2 3 1 255\n1 2 \n", "truncated pixel data: expected 3 samples, got 2"),
    # a blank raster holds no sample, not a 0
    ("blank-raster-whitespace", b"P2 1 1 255 \n\t \x0b\x0c\r", "truncated pixel data: expected 1 samples, got 0"),
    ("blank-raster-newline", b"P2 1 1 255\n", "truncated pixel data: expected 1 samples, got 0"),
    ("blank-raster-comment", b"P2 1 1 255 # only\n", "truncated pixel data: expected 1 samples, got 0"),
    ("blank-raster-comment-at-eof", b"P2 1 1 255 # only", "truncated pixel data: expected 1 samples, got 0"),
    # nothing after maxval
    ("blank-raster-at-eof", b"P2 1 1 255", "truncated pixel data: expected 1 samples, got 0"),
    ("sample-above-maxval", b"P2\n1 1\n10\n11", "sample value outside [0, 10]"),
    ("sample-1000", b"P2 1 1 255 1000", "sample value outside [0, 255]"),
    ("p2-beyond-int64", b"P2 2 1 100 7 99999999999999999999", "sample value outside [0, 100]"),
    # a PGM number is a run of digits: a minus sign is malformed, never "out of range"
    ("p2-below-int64", b"P2 1 1 100 -99999999999999999999", "malformed sample: b'-99999999999999999999'"),
    # a run beyond int64 reads as the int64 maximum, however long it is,
    # and so is a number out of range
    ("20-digit-sample", b"P2 1 1 255 99999999999999999999", "sample value outside [0, 255]"),
    ("20-digit-sample-first", b"P2 2 1 255 99999999999999999999 1", "sample value outside [0, 255]"),
    ("5000-digit-sample", b"P2 1 1 255 " + b"1" * 5000, "sample value outside [0, 255]"),
    ("5000-digit-sample-first", b"P2 2 1 255 " + b"1" * 5000 + b" 1", "sample value outside [0, 255]"),
    # the oracle reports the first bad token before it runs out of samples
    ("malformed-wins", b"P2 4 1 255 99999999999999999999 1_ 7", "malformed sample: b'1_'"),
    # width * height > sys.maxsize must reach no index or count argument
    ("count-beyond-maxsize", _HUGE_P2 + b"1 2 3", f"truncated pixel data: expected {_SQUARE} samples, got 3"),
    ("count-beyond-maxsize-plus", _HUGE_P2 + b"1 +2 3", "malformed sample: b'+2'"),
    ("count-beyond-maxsize-x", _HUGE_P2 + b"1 x 3", "malformed sample: b'x'"),
]


@pytest.mark.parametrize("data, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_named_case(data, expected):
    assert outcome(load_pgm, data) == expected
    assert_agrees(data)


# a non-integer token in the raster is named in full; one row per token
@pytest.mark.parametrize(
    "token",
    [b"1.0", b"0x1", b"1__0", b"_1", b"1_", b"\xd9\xa1", b"+", b"1e2"]
    # int() literals: a PGM number is a run of ASCII digits, as netpbm reads it
    + [b"+7", b"-0", b"-5", b"1_0", b"0_0_7", b"+99999999999999999999", b"-99999999999999999999"],
)
def test_non_integer_token_is_malformed(token):
    data = b"P2 2 1 255 3 " + token
    assert outcome(load_pgm, data) == f"malformed sample: {token!r}"
    assert_agrees(data)
