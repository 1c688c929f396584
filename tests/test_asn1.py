"""Low-level DER primitive tests, checked against independent encoders."""

import datetime as dt
import re

import pytest
from hypothesis import given, strategies as st

from diffcert import asn1, x509oids as oid


def reference_int_content(value: int) -> bytes:
    """Independent minimal two's-complement encoder for cross-checking."""
    if value == 0:
        return b"\x00"
    for nbytes in range(1, 64):
        try:
            return value.to_bytes(nbytes, "big", signed=True)
        except OverflowError:
            continue
    raise AssertionError("value too large for the reference encoder")


@given(st.integers(min_value=-(2**200), max_value=2**200))
def test_int_content_matches_reference(value):
    assert asn1.encode_int_content(value) == reference_int_content(value)


@given(st.integers(min_value=-(2**200), max_value=2**200))
def test_int_content_round_trip(value):
    assert asn1.decode_int_content(asn1.encode_int_content(value)) == value


@pytest.mark.parametrize(
    "content",
    [b"", b"\x00\x05", b"\xff\x80"],
)
def test_int_content_rejects_non_minimal(content):
    with pytest.raises(asn1.MalformedDer):
        asn1.decode_int_content(content)


def test_int_content_allows_required_padding():
    # 128 needs a leading zero octet; -129 needs a leading 0xff
    assert asn1.decode_int_content(b"\x00\x80") == 128
    assert asn1.decode_int_content(b"\xff\x7f") == -129


@given(st.binary(max_size=300))
def test_tlv_round_trip(content):
    blob = asn1.tlv(asn1.OCTET_STRING, content)
    tag, start, stop, nxt = asn1.read_tlv(blob, 0, len(blob))
    assert tag == asn1.OCTET_STRING
    assert blob[start:stop] == content
    assert nxt == len(blob)


@pytest.mark.parametrize("length", [0, 127, 128, 255, 256, 65_535, 65_536])
def test_tlv_inline_header_equals_encode_length(length):
    # each side of every inline header form, and the fallback past them
    content = bytes(i & 0xFF for i in range(length))
    head = bytes([asn1.OCTET_STRING]) + asn1.encode_length(length)
    assert asn1.header(asn1.OCTET_STRING, length) == head
    assert asn1.tlv(asn1.OCTET_STRING, content) == head + content


def test_length_forms():
    assert asn1.encode_length(0) == b"\x00"
    assert asn1.encode_length(127) == b"\x7f"
    assert asn1.encode_length(128) == b"\x81\x80"
    assert asn1.encode_length(300) == b"\x82\x01\x2c"


def test_read_tlv_rejects_ber_leniencies():
    with pytest.raises(asn1.MalformedDer):  # indefinite length
        asn1.read_tlv(b"\x30\x80\x00\x00", 0, 4)
    with pytest.raises(asn1.MalformedDer):  # needless long form
        asn1.read_tlv(b"\x04\x81\x05hello", 0, 8)
    with pytest.raises(asn1.MalformedDer):  # leading zero in long form
        asn1.read_tlv(b"\x04\x82\x00\x05hello", 0, 9)
    with pytest.raises(asn1.MalformedDer):  # truncated content
        asn1.read_tlv(b"\x04\x05he", 0, 4)
    with pytest.raises(asn1.MalformedDer):  # long-form tag number
        asn1.read_tlv(b"\x9f\x85\x01\x00", 0, 4)


@pytest.mark.parametrize(
    "blob, position, reason",
    [
        (b"", 0, "truncated: expected a tag"),
        (b"\x9f\x85\x01\x00", 0, "tag numbers >= 31 are not supported"),
        (b"\x30", 1, "truncated: expected a length"),
        (b"\x30\x80\x00\x00", 1, "indefinite lengths are not DER"),
        (b"\x04\x82\x01", 1, "truncated length field"),
        (b"\x04\x82\x00\x05hello", 2, "length has a leading zero octet"),
        (b"\x04\x81\x05hello", 1, "length uses the long form needlessly"),
        (b"\x04\x05he", 2, "content runs past the end of the buffer"),
    ],
    ids=["no-tag", "long-tag", "no-length", "indefinite", "truncated-length", "leading-zero", "needless-long-form", "short-content"],
)
def test_read_tlv_refusals_keep_offset_and_reason(blob, position, reason):
    for pos in (0, 3):
        data = b"\x05" * pos + blob
        with pytest.raises(asn1.MalformedDer) as info:
            asn1.read_tlv(data, pos, len(data))
        assert (info.value.offset, info.value.reason) == (pos + position, reason)


@pytest.mark.parametrize(
    "content, reason",
    [(b"", "BOOLEAN must be one octet"), (b"\xff\xff", "BOOLEAN must be one octet"), (b"\x01", "BOOLEAN content must be 0x00 or 0xff")],
)
def test_bool_content_refusals_keep_offset_and_reason(content, reason):
    with pytest.raises(asn1.MalformedDer) as info:
        asn1.decode_bool_content(content, 5)
    assert (info.value.offset, info.value.reason) == (5, reason)


KNOWN_OIDS = [
    ("1.2.840.113549.1.1.11", bytes.fromhex("2a864886f70d01010b")),
    ("2.5.29.19", bytes.fromhex("551d13")),
    ("1.3.6.1.5.5.7.1.1", bytes.fromhex("2b06010505070101")),
    ("2.16.840.1.101.3.4.3.2", bytes.fromhex("608648016503040302")),
]


@pytest.mark.parametrize("dotted,expected", KNOWN_OIDS)
def test_oid_known_encodings(dotted, expected):
    assert asn1.encode_oid_content(dotted) == expected
    assert asn1.decode_oid_content(expected) == dotted


@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=6).map(
        lambda tail: "1.3." + ".".join(str(x) for x in tail) if tail else "1.3"
    )
)
def test_oid_round_trip(dotted):
    assert asn1.decode_oid_content(asn1.encode_oid_content(dotted)) == dotted


X509_OIDS = sorted(
    value for value in vars(oid).values() if isinstance(value, str) and re.fullmatch(r"[0-2](\.[0-9]+)+", value)
)


def test_cached_oid_decode_equals_uncached_on_every_known_oid():
    assert len(X509_OIDS) > 30
    for dotted in X509_OIDS:
        content = asn1.encode_oid_content(dotted)
        for _ in range(2):  # the second call is a cache hit
            assert asn1.decode_oid_content(content) == asn1._decode_oid.__wrapped__(content) == dotted


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=39),
    st.lists(st.integers(min_value=0, max_value=2**70), max_size=8),
)
def test_cached_oid_decode_equals_uncached_on_arc_lists(first, second, tail):
    dotted = ".".join(str(arc) for arc in [first, second, *tail])
    content = asn1.encode_oid_content(dotted)
    assert asn1.decode_oid_content(content) == asn1._decode_oid.__wrapped__(content) == dotted
    assert asn1.decode_oid_content(bytearray(content), 9) == dotted


@pytest.mark.parametrize(
    "content,position",
    [(b"", 0), (b"\x2a\x80\x01", 1), (b"\x2a\x86", 2), (b"\x80\x01", 0)],
)
def test_malformed_oid_keeps_its_offset_when_repeated(content, position):
    # failures are never cached: each call reports the caller's offset
    for offset in (0, 17, 17, 400):
        with pytest.raises(asn1.MalformedDer) as caught:
            asn1.decode_oid_content(content, offset)
        assert caught.value.offset == offset + position
        with pytest.raises(asn1.MalformedDer) as again:
            asn1.decode_oid_content(bytearray(content), offset)
        assert (again.value.offset, again.value.reason) == (caught.value.offset, caught.value.reason)


def test_oid_cache_stays_within_its_limit():
    for arc in range(asn1.OID_CACHE_LIMIT + 300):
        assert asn1.decode_oid_content(asn1.encode_oid_content(f"1.3.6.1.4.1.{arc}")) == f"1.3.6.1.4.1.{arc}"
        assert asn1._decode_oid.cache_info().currsize <= asn1.OID_CACHE_LIMIT
        assert asn1.encode_oid_content.cache_info().currsize <= asn1.OID_CACHE_LIMIT


def test_time_utc_round_trip():
    t = dt.datetime(2024, 6, 1, 12, 30, 45, tzinfo=asn1.UTC)
    tag, content = asn1.encode_time(t, asn1.UTC_TIME)
    assert tag == asn1.UTC_TIME
    assert content == b"240601123045Z"
    assert asn1.decode_time(tag, content) == t


def test_time_utc_century_split():
    assert asn1.decode_time(asn1.UTC_TIME, b"500101000000Z").year == 1950
    assert asn1.decode_time(asn1.UTC_TIME, b"491231235959Z").year == 2049


def test_time_escapes_utc_range():
    t = dt.datetime(2055, 1, 2, 3, 4, 5, tzinfo=asn1.UTC)
    tag, content = asn1.encode_time(t, asn1.UTC_TIME)
    assert tag == asn1.GENERALIZED_TIME
    assert content == b"20550102030405Z"
    t = dt.datetime(1949, 12, 31, 23, 59, 59, tzinfo=asn1.UTC)
    tag, _ = asn1.encode_time(t, asn1.UTC_TIME)
    assert tag == asn1.GENERALIZED_TIME


@pytest.mark.parametrize("content", [b"2401010000Z", b"240101000000", b"24010100000zZ", b""])
def test_time_rejects_bad_shapes(content):
    with pytest.raises(asn1.MalformedDer):
        asn1.decode_time(asn1.UTC_TIME, content)


def test_generalized_time_round_trip():
    t = dt.datetime(2055, 1, 2, 3, 4, 5, tzinfo=asn1.UTC)
    assert asn1.decode_time(asn1.GENERALIZED_TIME, b"20550102030405Z") == t
    assert asn1.decode_time(asn1.GENERALIZED_TIME, b"19490102030405Z").year == 1949


@pytest.mark.parametrize(
    "tag, content",
    [
        (asn1.UTC_TIME, b"20250601000000Z"),  # four year digits
        (asn1.UTC_TIME, b"2506010000000"),  # no Z
        (asn1.GENERALIZED_TIME, b"250601000000Z"),  # two year digits
        (asn1.GENERALIZED_TIME, b"20250601000000"),  # no Z
        (asn1.GENERALIZED_TIME, b"2025060100000zZ"),  # a letter among the digits
        (asn1.GENERALIZED_TIME, b"20251301000000Z"),  # month 13
        (asn1.GENERALIZED_TIME, "2025060100000\xe9Z".encode("latin-1")),  # a non-ASCII octet
    ],
    ids=["utc-four-digit-year", "utc-no-z", "generalized-two-digit-year", "generalized-no-z", "generalized-letter",
         "generalized-month-13", "generalized-non-ascii"],
)
def test_time_shape_refusals_keep_offset_and_reason(tag, content):
    with pytest.raises(asn1.MalformedDer) as info:
        asn1.decode_time(tag, content, 7)
    text = content.decode("ascii", errors="replace")
    assert (info.value.offset, info.value.reason) == (7, f"invalid time value {text!r}")


def test_time_rejects_a_tag_that_is_not_a_time_type():
    # the tag's own reason, not the "invalid time value" of a bad shape
    with pytest.raises(asn1.MalformedDer) as info:
        asn1.decode_time(0x04, b"250601000000Z", 7)
    assert (info.value.offset, info.value.reason) == (7, "tag 0x04 is not a time type")


def test_der_well_formed():
    good = asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.INTEGER, b"\x05") + asn1.tlv(asn1.OCTET_STRING, b"xy"))
    assert asn1.der_well_formed(good)
    assert not asn1.der_well_formed(good[:-1])
    assert not asn1.der_well_formed(b"\x30\x05\xde\x01")
    assert asn1.der_well_formed(b"")
