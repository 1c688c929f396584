"""Strict DER primitives used by the certificate codec.

Only the slice of ASN.1 needed for X.509 work is covered: definite-length
TLV framing, INTEGER, BOOLEAN, OBJECT IDENTIFIER, BIT STRING framing and
the two time types.  BER leniencies (indefinite lengths, non-minimal
length or integer encodings, tag numbers >= 31) are rejected so that a
decode/encode round-trip is always byte-exact.
"""

from __future__ import annotations

import datetime as dt
import functools

BOOLEAN = 0x01
INTEGER = 0x02
BIT_STRING = 0x03
OCTET_STRING = 0x04
OBJECT_IDENTIFIER = 0x06
UTF8_STRING = 0x0C
PRINTABLE_STRING = 0x13
UTC_TIME = 0x17
GENERALIZED_TIME = 0x18
SEQUENCE = 0x30
SET = 0x31
CTX_0_EXPLICIT = 0xA0  # [0] constructed (TBS version)
CTX_3_EXPLICIT = 0xA3  # [3] constructed (TBS extensions)
CTX_1_PRIMITIVE = 0x81  # [1] primitive (issuerUniqueID)
CTX_2_PRIMITIVE = 0x82  # [2] primitive (subjectUniqueID)

CONSTRUCTED = 0x20

UTC = dt.timezone.utc


class MalformedDer(ValueError):
    """The input violates DER.  Carries the byte offset of the violation."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed DER at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class EncodingOverflow(ValueError):
    """A value exceeds what this encoder will represent in definite-length DER."""


def read_tlv(data: bytes, pos: int, end: int) -> tuple[int, int, int, int]:
    """Read one TLV at ``data[pos:end]``.

    Returns ``(tag, content_start, content_stop, next_pos)`` where
    ``next_pos == content_stop``.  Rejects indefinite and non-minimal
    lengths and long-form tag numbers.
    """
    if pos >= end:
        raise MalformedDer(pos, "truncated: expected a tag")
    tag = data[pos]
    if tag & 0x1F == 0x1F:
        raise MalformedDer(pos, "tag numbers >= 31 are not supported")
    if pos + 1 >= end:
        raise MalformedDer(pos + 1, "truncated: expected a length")
    first = data[pos + 1]
    if first < 0x80:
        length, start = first, pos + 2
    elif first == 0x80:
        raise MalformedDer(pos + 1, "indefinite lengths are not DER")
    else:
        nbytes = first & 0x7F
        start = pos + 2 + nbytes
        if start > end:
            raise MalformedDer(pos + 1, "truncated length field")
        raw = data[pos + 2 : start]
        if raw[0] == 0:
            raise MalformedDer(pos + 2, "length has a leading zero octet")
        length = int.from_bytes(raw, "big")
        if length < 0x80:
            raise MalformedDer(pos + 1, "length uses the long form needlessly")
    stop = start + length
    if stop > end:
        raise MalformedDer(start, "content runs past the end of the buffer")
    return tag, start, stop, stop


def expect_tlv(data: bytes, pos: int, end: int, tag: int, what: str) -> tuple[int, int, int]:
    """Like :func:`read_tlv` but requires a specific tag."""
    got, start, stop, nxt = read_tlv(data, pos, end)
    if got != tag:
        raise MalformedDer(pos, f"expected {what} (tag 0x{tag:02x}), found tag 0x{got:02x}")
    return start, stop, nxt


def encode_length(length: int) -> bytes:
    if length < 0:
        raise EncodingOverflow("negative length")
    if length < 0x80:
        return bytes([length])
    raw = length.to_bytes((length.bit_length() + 7) // 8, "big")
    if len(raw) > 126:
        raise EncodingOverflow("length does not fit definite-length DER")
    return bytes([0x80 | len(raw)]) + raw


def header(tag: int, length: int) -> bytes:
    """The tag and length octets of a TLV with ``length`` content bytes."""
    # built inline for the lengths certificates use; `encode_length`
    # handles (and refuses) the rest
    if length < 0x80:
        return bytes((tag, length))
    if length < 0x100:
        return bytes((tag, 0x81, length))
    if length < 0x10000:
        return bytes((tag, 0x82, length >> 8, length & 0xFF))
    return bytes([tag]) + encode_length(length)


def tlv(tag: int, content: bytes) -> bytes:
    n = len(content)
    if n < 0x80:  # most TLVs: no call for the header
        return bytes((tag, n)) + content
    return header(tag, n) + content


def encode_int_content(value: int) -> bytes:
    """Two's-complement minimal content octets of an INTEGER."""
    return value.to_bytes((value if value >= 0 else ~value).bit_length() // 8 + 1, "big", signed=True)


def decode_int_content(content: bytes, offset: int = 0) -> int:
    if not content:
        raise MalformedDer(offset, "empty INTEGER")
    if len(content) >= 2:
        if content[0] == 0x00 and content[1] < 0x80:
            raise MalformedDer(offset, "non-minimal INTEGER (leading 0x00)")
        if content[0] == 0xFF and content[1] >= 0x80:
            raise MalformedDer(offset, "non-minimal INTEGER (leading 0xff)")
    return int.from_bytes(content, "big", signed=True)


def decode_bool_content(content: bytes, offset: int = 0) -> bool:
    if len(content) != 1:
        raise MalformedDer(offset, "BOOLEAN must be one octet")
    if content[0] == 0xFF:
        return True
    if content[0] == 0x00:
        return False
    raise MalformedDer(offset, "BOOLEAN content must be 0x00 or 0xff")


OID_CACHE_LIMIT = 1024  # distinct OIDs kept encoded and decoded; a hostile corpus cannot grow it further


@functools.lru_cache(maxsize=OID_CACHE_LIMIT)  # the same few OIDs recur in every certificate
def encode_oid_content(dotted: str) -> bytes:
    arcs = [int(part) for part in dotted.split(".")]
    if len(arcs) < 2 or arcs[0] > 2 or (arcs[0] < 2 and arcs[1] >= 40):
        raise ValueError(f"invalid OID {dotted!r}")
    if any(a < 0 for a in arcs):
        raise ValueError(f"invalid OID {dotted!r}")
    out = bytearray()
    for value in [arcs[0] * 40 + arcs[1]] + arcs[2:]:
        chunk = [value & 0x7F]
        value >>= 7
        while value:
            chunk.append((value & 0x7F) | 0x80)
            value >>= 7
        out.extend(reversed(chunk))
    return bytes(out)


def parse_at(parse, content: bytes, offset: int, *args):
    """``parse(content, *args)`` for the slice ``content`` at ``offset`` of
    an input, ``parse`` being a cache by slice that caches no failure: a
    `MalformedDer` is moved from the slice to its offset in the input."""
    try:  # a call without arguments is the cheaper one, and most are
        return parse(content, *args) if args else parse(content)
    except MalformedDer as exc:
        raise MalformedDer(offset + exc.offset, exc.reason) from None


def decode_oid_content(content: bytes, offset: int = 0) -> str:
    """Dotted form of an OID's content bytes, cached by content: a
    certificate corpus names few distinct OIDs."""
    return parse_at(_decode_oid, bytes(content), offset)


@functools.lru_cache(maxsize=OID_CACHE_LIMIT)
def _decode_oid(content: bytes) -> str:
    """`decode_oid_content` at offset 0; ``__wrapped__`` is the uncached decode."""
    if not content:
        raise MalformedDer(0, "empty OBJECT IDENTIFIER")
    arcs: list[int] = []
    value = 0
    started = False
    for i, byte in enumerate(content):
        if not started and byte == 0x80:
            raise MalformedDer(i, "non-minimal OID subidentifier")
        started = True
        value = (value << 7) | (byte & 0x7F)
        if byte & 0x80 == 0:
            arcs.append(value)
            value = 0
            started = False
    if started:
        raise MalformedDer(len(content), "truncated OID subidentifier")
    first = arcs[0]
    if first < 40:
        head = [0, first]
    elif first < 80:
        head = [1, first - 40]
    else:
        head = [2, first - 80]
    return ".".join(str(a) for a in head + arcs[1:])


def time_tag(t: dt.datetime, preferred_tag: int) -> int:
    """The tag `encode_time` writes: the preferred one when legal.

    UTCTime can only express 1950-2049; outside that window the value is
    encoded as GeneralizedTime regardless of preference.
    """
    return UTC_TIME if preferred_tag == UTC_TIME and 1950 <= t.astimezone(UTC).year <= 2049 else GENERALIZED_TIME


def encode_time(t: dt.datetime, preferred_tag: int) -> tuple[int, bytes]:
    """Encode a UTC timestamp under `time_tag`."""
    t = t.astimezone(UTC)
    if time_tag(t, preferred_tag) == UTC_TIME:
        return UTC_TIME, t.strftime("%y%m%d%H%M%S").encode("ascii") + b"Z"
    return GENERALIZED_TIME, f"{t.year:04d}".encode("ascii") + t.strftime("%m%d%H%M%S").encode("ascii") + b"Z"


def decode_time(tag: int, content: bytes, offset: int = 0) -> dt.datetime:
    if tag not in (UTC_TIME, GENERALIZED_TIME):
        raise MalformedDer(offset, f"tag 0x{tag:02x} is not a time type")
    text = content.decode("ascii", errors="replace")
    digits = 2 if tag == UTC_TIME else 4  # of the year; then MMDDHHMMSS and Z
    try:
        if len(text) != digits + 11 or not text.endswith("Z") or not text[:-1].isdigit():
            raise ValueError("bad time shape")
        year = int(text[:digits])
        if tag == UTC_TIME:
            year += 1900 if year >= 50 else 2000
        rest = text[digits:-1]
        month, day = int(rest[0:2]), int(rest[2:4])
        hour, minute, second = int(rest[4:6]), int(rest[6:8]), int(rest[8:10])
        return dt.datetime(year, month, day, hour, minute, second, tzinfo=UTC)
    except ValueError as exc:
        raise MalformedDer(offset, f"invalid time value {text!r}") from exc


def der_well_formed(data: bytes) -> bool:
    """True when ``data`` is a complete, well-nested definite-length DER blob."""
    try:
        _walk(data, 0, len(data))
    except MalformedDer:
        return False
    return True


def _walk(data: bytes, pos: int, end: int) -> None:
    while pos < end:
        tag, start, stop, pos = read_tlv(data, pos, end)
        if tag & CONSTRUCTED:
            _walk(data, start, stop)
