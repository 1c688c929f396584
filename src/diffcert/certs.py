"""Lossless X.509 certificate model: strict DER parse/encode, PEM armor,
a deterministic synthetic-certificate builder and a mock signature scheme.

The model is deliberately partial: the TBS fields that the fuzzer mutates
and featurizes are fully structured, everything else is kept as opaque
byte ranges and re-emitted verbatim.  An unmodified certificate always
re-encodes to its original bytes; a mutated one has its TBS re-serialized
from the structured fields while the (now stale) signature bytes are
carried over unchanged -- mutants are never re-signed.  Every part is
immutable and caches its own DER and the facts read from it.  The parse
seeds each part's DER (and the certificate's TBS and encoding) with its
slice of the input, and `copy_certificate` copies the fields without the
cached bytes, so every mutant, the first of a seed included, re-encodes
and re-derives only the parts its edit replaced.  Each distinct algorithm,
name, validity time and extension is parsed or built once per process: the
parse interns parts by their DER, and the actions intern the parts they
build by the part they edit, which hashes by its DER, so certificates that
repeat a part (one CA's issuer name, its policies, the same edit of them)
share one instance of it and the facts cached on it.  Each distinct
certificate is parsed once per process too, keyed by its DER and parse
mode, so a campaign's seed visits reuse the parse that accepted the seed
into the corpus.  Each cache holds at most `PART_CACHE_LIMIT` entries
(some 4 MB of certificates at about 4 KB each); a smaller limit could not
hold a corpus of a few hundred seeds, whose visits would evict each other.
"""

from __future__ import annotations

import base64
import datetime as dt
import functools
import hashlib
import random
import re
from dataclasses import dataclass

from . import asn1, x509oids as oid
from .asn1 import UTC, MalformedDer

# Fixed reference clock; campaigns and "set to now" mutations default to it
# so that stored action traces replay byte-identically.
REFERENCE_TIME = dt.datetime(2025, 6, 1, 0, 0, 0, tzinfo=UTC)

ONE_YEAR = 365 * 24 * 3600


class _cached:
    """``functools.cached_property`` without the lock it takes on every
    first read (Python 3.11), which costs more than most encodings it
    guards: the parts are immutable, so a value two threads compute at
    once is the same value."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _der_hash(part) -> int:
    """A part's hash: that of its DER, which its fields determine."""
    return hash(part.der)


class UnsupportedStructure(ValueError):
    """A required certificate field could not be located or understood."""


class MalformedPem(ValueError):
    """PEM armor is missing or the base64 body does not decode."""


class InvalidParams(ValueError):
    """Synthetic-certificate parameters are out of range or inconsistent."""


@dataclass(frozen=True)
class NameAttribute:
    """One AttributeTypeAndValue; the value keeps its original tag and bytes."""

    oid: str
    tag: int
    value: bytes

    def text(self) -> str:
        return self.value.decode("utf-8", errors="replace")


@dataclass(frozen=True)
class Name:
    """An ordered X.501 name; ``rdns`` is a tuple of tuples of attributes."""

    rdns: tuple[tuple[NameAttribute, ...], ...] = ()
    __hash__ = _der_hash

    def attributes(self):
        for rdn in self.rdns:
            yield from rdn

    @_cached
    def country(self) -> str | None:
        """The text of the first country attribute, if any."""
        return next((attr.text() for attr in self.attributes() if attr.oid == oid.COUNTRY), None)

    @_cached
    def odd_countries(self) -> int:
        """How many country attributes are not two octets long."""
        return sum(attr.oid == oid.COUNTRY and len(attr.value) != 2 for attr in self.attributes())

    def with_country(self, code: str) -> "Name":
        """Return a copy with the first country attribute set (appended if absent)."""
        new_attr = NameAttribute(oid.COUNTRY, asn1.PRINTABLE_STRING, code.encode("ascii"))
        for i, rdn in enumerate(self.rdns):
            for j, attr in enumerate(rdn):
                if attr.oid == oid.COUNTRY:
                    return Name(self.rdns[:i] + (rdn[:j] + (new_attr,) + rdn[j + 1 :],) + self.rdns[i + 1 :])
        return Name(self.rdns + ((new_attr,),))

    def without_country(self) -> "Name":
        rdns = []
        for rdn in self.rdns:
            attrs = tuple(a for a in rdn if a.oid != oid.COUNTRY)
            if attrs:
                rdns.append(attrs)
        return Name(tuple(rdns))

    @_cached
    def der(self) -> bytes:
        rdns = []
        for rdn in self.rdns:
            atvs = b"".join(
                asn1.tlv(
                    asn1.SEQUENCE,
                    asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(a.oid)) + asn1.tlv(a.tag, a.value),
                )
                for a in rdn
            )
            rdns.append(asn1.tlv(asn1.SET, atvs))
        return asn1.tlv(asn1.SEQUENCE, b"".join(rdns))


@dataclass(frozen=True)
class TimeValue:
    """A validity bound plus the tag it was (or should be) encoded with."""

    at: dt.datetime
    tag: int = asn1.UTC_TIME
    __hash__ = _der_hash

    @_cached
    def seconds(self) -> int:
        """Whole seconds since the epoch.  Parsed and mutated bounds carry
        no fraction, so adding ``k`` seconds here equals the timestamp of
        ``at`` moved by ``k`` seconds, even where that moved datetime
        would fall past year 9999."""
        return int(self.at.timestamp())

    @_cached
    def der(self) -> bytes:
        return asn1.tlv(*asn1.encode_time(self.at, self.tag))


@dataclass(frozen=True)
class AlgorithmId:
    oid: str
    params_raw: bytes = b"\x05\x00"  # raw TLVs following the OID, NULL by default
    __hash__ = _der_hash

    @_cached
    def der(self) -> bytes:
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(self.oid)) + self.params_raw)


@dataclass(frozen=True)
class PublicKeyInfo:
    """subjectPublicKeyInfo: the key's algorithm, BIT STRING content kept raw."""

    algorithm: AlgorithmId
    key_raw: bytes  # BIT STRING content octets, pad-count byte included

    @property
    def bit_length(self) -> int:
        if len(self.key_raw) < 1:
            return 0
        return max(0, (len(self.key_raw) - 1) * 8 - self.key_raw[0])

    @_cached
    def der(self) -> bytes:
        return asn1.tlv(asn1.SEQUENCE, self.algorithm.der + asn1.tlv(asn1.BIT_STRING, self.key_raw))


# ---------------------------------------------------------------------------
# Per-type value classifiers.  Class 3 always means "malformed".

VALUE_WELL_FORMED_DEFAULT = 0
MALFORMED = 3


def _value_classifier(tag: int):
    """Make a content rule a value classifier: the value must be one TLV
    with ``tag`` and nothing after it, ``rule(value, start, stop)`` then
    classes its content, and any `MalformedDer` is `MALFORMED`."""

    def frame(rule):
        def classify(value: bytes) -> int:
            try:
                got, start, stop, nxt = asn1.read_tlv(value, 0, len(value))
                return rule(value, start, stop) if got == tag and nxt == len(value) else MALFORMED
            except MalformedDer:
                return MALFORMED

        return classify

    return frame


@_value_classifier(asn1.SEQUENCE)
def _classify_basic_constraints(value: bytes, start: int, stop: int) -> int:
    # 1 = CA TRUE, 2 = CA false (explicit or defaulted), 3 = malformed
    if start == stop:
        return 2
    tag, bstart, bstop, _ = asn1.read_tlv(value, start, stop)
    if tag != asn1.BOOLEAN:
        return 2  # pathLen without cA; cA defaults to FALSE
    return 1 if value[bstart:bstop] != b"\x00" else 2


@_value_classifier(asn1.BIT_STRING)
def _classify_key_usage(value: bytes, start: int, stop: int) -> int:
    # 1 = keyCertSign present, 2 = other usable bits, 3 = malformed/empty
    if stop - start < 2 or value[start] > 7 or not any(value[start + 1 : stop]):
        return MALFORMED
    return 1 if value[start + 1] & 0x04 else 2  # keyCertSign: bit 5 of the first octet


@_value_classifier(asn1.SEQUENCE)
def _classify_ext_key_usage(value: bytes, pos: int, stop: int) -> int:
    # 1 = serverAuth present, 2 = other purposes, 3 = malformed/empty
    if pos == stop:
        return MALFORMED
    purposes = []
    while pos < stop:
        ostart, ostop, pos = asn1.expect_tlv(value, pos, stop, asn1.OBJECT_IDENTIFIER, "purpose")
        purposes.append(asn1.decode_oid_content(value[ostart:ostop], ostart))
    return 1 if oid.EKU_SERVER_AUTH in purposes else 2


@_value_classifier(asn1.SEQUENCE)
def _classify_subject_alt_name(value: bytes, pos: int, stop: int) -> int:
    # 1 = contains a dNSName, 2 = other general names, 3 = malformed/empty
    if pos == stop:
        return MALFORMED
    tags = []
    while pos < stop:
        tag, _, _, pos = asn1.read_tlv(value, pos, stop)
        if tag & 0xC0 != 0x80:
            return MALFORMED
        tags.append(tag & 0x1F)
    return 1 if 2 in tags else 2


_VALUE_CLASSIFIERS = {
    oid.BASIC_CONSTRAINTS: _classify_basic_constraints,
    oid.KEY_USAGE: _classify_key_usage,
    oid.EXT_KEY_USAGE: _classify_ext_key_usage,
    oid.SUBJECT_ALT_NAME: _classify_subject_alt_name,
}


def classify_extension_value(ext_oid: str, value: bytes) -> int:
    """Value-class for an extension; types without a classifier map to 0."""
    classify = _VALUE_CLASSIFIERS.get(ext_oid)
    return VALUE_WELL_FORMED_DEFAULT if classify is None else classify(value)


@dataclass(frozen=True)
class Extension:
    """One certificate extension.

    ``value`` holds the inner DER (the content of the extnValue OCTET
    STRING).  ``critical_encoded`` tracks whether the criticality BOOLEAN
    appears on the wire -- an explicitly encoded FALSE violates DER and is
    produced only by mutations (and accepted only by lenient parsing).
    """

    oid: str
    critical: bool = False
    value: bytes = b""
    critical_encoded: bool | None = None
    __hash__ = _der_hash

    def __post_init__(self):
        if self.critical_encoded is None:
            object.__setattr__(self, "critical_encoded", self.critical)

    @_cached
    def der(self) -> bytes:
        body = asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(self.oid))
        if self.critical_encoded:
            body += asn1.tlv(asn1.BOOLEAN, b"\xff" if self.critical else b"\x00")
        body += asn1.tlv(asn1.OCTET_STRING, self.value)
        return asn1.tlv(asn1.SEQUENCE, body)

    @_cached
    def value_class(self) -> int:
        """`classify_extension_value` of this extension: its feature slot."""
        return classify_extension_value(self.oid, self.value)

    @_cached
    def malformed(self) -> bool:
        """Whether simulated validators should treat the value as unparseable.

        Classified types use their classifier's malformed class; every other
        type gets a generic nested-DER well-formedness check.
        """
        if self.oid in _VALUE_CLASSIFIERS:
            return self.value_class == MALFORMED
        return not asn1.der_well_formed(self.value)


@dataclass(frozen=True)
class Certificate:
    """Structured TBS fields plus the opaque regions needed for re-encoding.

    Immutable.  ``tbs`` and ``encoding`` hold a certificate's TBS and
    whole DER: :func:`parse_der` seeds both with the parsed bytes, and any
    other instance -- built directly or copied with `copy_certificate` --
    encodes from its fields on first read.
    """

    version: int  # human value: 1..4+ (wire value is version - 1)
    version_present: bool
    serial: int
    serial_raw: bytes  # INTEGER content octets as they will appear on the wire
    signature_algorithm: AlgorithmId  # inner TBS algorithm
    issuer: Name
    subject: Name
    not_before: TimeValue
    not_after: TimeValue
    public_key_info: PublicKeyInfo
    extensions: tuple[Extension, ...] = ()
    unique_ids_raw: bytes = b""  # [1]/[2] TLVs between SPKI and extensions, verbatim
    outer_sig_alg_raw: bytes = b""  # the signatureAlgorithm TLV after the TBS
    signature_value: bytes = b"\x00"  # BIT STRING content octets, pad byte included

    def extension(self, ext_oid: str) -> Extension | None:
        for ext in self.extensions:
            if ext.oid == ext_oid:
                return ext
        return None

    @_cached
    def tbs(self) -> bytes:
        """The TBS DER, built from the fields (a parsed certificate holds
        its parsed slice here instead)."""
        return encode_tbs(self)

    @_cached
    def encoding(self) -> bytes:
        """The whole certificate's DER: `tbs` with the original signature
        carried over (a parsed certificate holds its parsed bytes here
        instead)."""
        tbs = self.tbs
        sig = asn1.tlv(asn1.BIT_STRING, self.signature_value)
        head = asn1.header(asn1.SEQUENCE, len(tbs) + len(self.outer_sig_alg_raw) + len(sig))
        return b"".join((head, tbs, self.outer_sig_alg_raw, sig))

    @_cached
    def strict_der(self) -> bool:
        """False when an extension encodes a FALSE criticality flag: the one
        leniency ``parse_der(lenient=True)`` tolerates, so a lenient parse
        that reads True here is also a strict one."""
        return not any(ext.critical_encoded and not ext.critical for ext in self.extensions)


_CERTIFICATE_FIELDS = Certificate.__dataclass_fields__.keys()


def copy_certificate(cert: Certificate, **changes) -> Certificate:
    """``dataclasses.replace(cert, **changes)`` at a fraction of the cost:
    the fields are copied as they are (a certificate has no
    ``__post_init__`` to rerun), so the copy encodes from its fields.  Of
    the cached attributes only ``strict_der``, a function of the
    extensions alone, is carried, and only when ``extensions`` is not
    among the changes.  An unknown name raises TypeError."""
    state = cert.__dict__
    copy = object.__new__(Certificate)
    fields = copy.__dict__
    for name in _CERTIFICATE_FIELDS:
        fields[name] = state[name]
    fields.update(changes)
    if len(fields) != len(_CERTIFICATE_FIELDS):
        raise TypeError(f"Certificate has no field {sorted(changes.keys() - _CERTIFICATE_FIELDS)[0]!r}")
    if "extensions" not in changes and "strict_der" in state:
        fields["strict_der"] = state["strict_der"]
    return copy


# ---------------------------------------------------------------------------
# Parsing

PART_CACHE_LIMIT = 1024  # distinct certificates, and parts of each kind, kept parsed or built; a hostile corpus cannot grow them further


def parse_der(data: bytes, *, lenient: bool = False) -> Certificate:
    """Parse a DER-encoded certificate.

    Strict by default: any BER leniency raises :class:`MalformedDer`.
    ``lenient=True`` additionally tolerates an explicitly encoded FALSE
    extension-criticality flag (a mutation this fuzzer emits on purpose);
    the flag's encoding is preserved so the round-trip stays byte-exact.
    Equal bytes parsed in one mode give the same (immutable) instance.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_der expects bytes")
    return _certificate(bytes(data), lenient)


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _certificate(data: bytes, lenient: bool) -> Certificate:
    if not data or data[0] != asn1.SEQUENCE:
        raise MalformedDer(0, "certificate must start with a SEQUENCE tag (0x30)")
    _, start, stop, nxt = asn1.read_tlv(data, 0, len(data))
    if nxt != len(data):
        raise MalformedDer(nxt, "trailing bytes after the certificate")

    pos = start
    got, tstart, tstop, pos = asn1.read_tlv(data, pos, stop)
    if got != asn1.SEQUENCE:
        raise UnsupportedStructure("tbsCertificate is not a SEQUENCE")
    tbs_raw = data[start:pos]

    fields = _parse_tbs(data, tstart, tstop, lenient=lenient)

    alg_start = pos
    got, astart, astop, pos = asn1.read_tlv(data, pos, stop)
    if got != asn1.SEQUENCE:
        raise UnsupportedStructure("signatureAlgorithm is not a SEQUENCE")
    outer_sig_alg_raw = data[alg_start:pos]

    sstart, sstop, pos = asn1.expect_tlv(data, pos, stop, asn1.BIT_STRING, "signatureValue")
    signature_value = data[sstart:sstop]
    _check_bit_string(signature_value, sstart)
    if pos != stop:
        raise MalformedDer(pos, "trailing bytes inside the certificate SEQUENCE")

    cert = Certificate(**fields, outer_sig_alg_raw=outer_sig_alg_raw, signature_value=signature_value)
    cert.__dict__.update(tbs=tbs_raw, encoding=data)  # seeds the cached slots: no re-encoding
    return cert


def _parse_tbs(data: bytes, pos: int, end: int, *, lenient: bool) -> dict:
    version, version_present = 1, False
    tag, vstart, vstop, nxt = asn1.read_tlv(data, pos, end)
    if tag == asn1.CTX_0_EXPLICIT:
        pos = nxt
        istart, istop, inxt = asn1.expect_tlv(data, vstart, vstop, asn1.INTEGER, "version")
        if inxt != vstop:
            raise MalformedDer(inxt, "trailing bytes in the version field")
        version = asn1.decode_int_content(data[istart:istop], istart) + 1
        version_present = True
        if version < 1:
            raise UnsupportedStructure(f"nonsensical version value {version - 1}")

    sstart, sstop, pos = asn1.expect_tlv(data, pos, end, asn1.INTEGER, "serialNumber")
    serial_raw = data[sstart:sstop]
    serial = asn1.decode_int_content(serial_raw, sstart)

    sig_alg, pos = _sequence_part(_algorithm, data, pos, end, "AlgorithmIdentifier")
    issuer, pos = _sequence_part(_name, data, pos, end, "Name")

    vstart, vstop, pos = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "validity")
    not_before, vpos = _parse_time(data, vstart, vstop)
    not_after, vpos = _parse_time(data, vpos, vstop)
    if vpos != vstop:
        raise MalformedDer(vpos, "trailing bytes in validity")

    subject, pos = _sequence_part(_name, data, pos, end, "Name")
    spki, pos = _parse_spki(data, pos, end)

    unique_start = pos
    while pos < end and data[pos] in (asn1.CTX_1_PRIMITIVE, asn1.CTX_2_PRIMITIVE):
        pos = asn1.read_tlv(data, pos, end)[3]
    unique_ids_raw = data[unique_start:pos]

    extensions: tuple[Extension, ...] = ()
    if pos < end:
        tag, estart, estop, pos = asn1.read_tlv(data, pos, end)
        if tag != asn1.CTX_3_EXPLICIT:
            raise UnsupportedStructure(f"unexpected TBS field with tag 0x{tag:02x}")
        extensions = _parse_extensions(data, estart, estop, lenient=lenient)
    if pos != end:
        raise MalformedDer(pos, "trailing bytes in the TBS")

    return dict(
        version=version,
        version_present=version_present,
        serial=serial,
        serial_raw=serial_raw,
        signature_algorithm=sig_alg,
        issuer=issuer,
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        public_key_info=spki,
        unique_ids_raw=unique_ids_raw,
        extensions=extensions,
    )


def _parse_time(data: bytes, pos: int, end: int) -> tuple[TimeValue, int]:
    tag, _, _, nxt = asn1.read_tlv(data, pos, end)
    if tag not in (asn1.UTC_TIME, asn1.GENERALIZED_TIME):
        raise UnsupportedStructure(f"validity time has tag 0x{tag:02x}")
    return _interned(_time, data, pos, nxt), nxt


def _parse_spki(data: bytes, pos: int, end: int) -> tuple[PublicKeyInfo, int]:
    pstart, pstop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "subjectPublicKeyInfo")
    atag, _, _, apos = asn1.read_tlv(data, pstart, pstop)
    if atag != asn1.SEQUENCE:
        raise UnsupportedStructure("SPKI algorithm is not a SEQUENCE")
    algorithm = _interned(_algorithm, data, pstart, apos)
    kstart, kstop, kpos = asn1.expect_tlv(data, apos, pstop, asn1.BIT_STRING, "subjectPublicKey")
    if kpos != pstop:
        raise MalformedDer(kpos, "trailing bytes in subjectPublicKeyInfo")
    key_raw = data[kstart:kstop]
    _check_bit_string(key_raw, kstart)
    spki = PublicKeyInfo(algorithm, key_raw)
    spki.__dict__["der"] = data[pos:nxt]
    return spki, nxt


def _check_bit_string(content: bytes, offset: int) -> None:
    if not content:
        raise MalformedDer(offset, "empty BIT STRING")
    if content[0] > 7 or (len(content) == 1 and content[0] != 0):
        raise MalformedDer(offset, "invalid BIT STRING pad count")


def _parse_extensions(data: bytes, pos: int, end: int, *, lenient: bool) -> tuple[Extension, ...]:
    lstart, lstop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "extensions list")
    if nxt != end:
        raise MalformedDer(nxt, "trailing bytes after the extensions list")
    if lstart == lstop:
        raise MalformedDer(pos, "empty extensions list (RFC 5280 requires at least one)")
    exts = []
    while lstart < lstop:
        ext, lstart = _sequence_part(_extension, data, lstart, lstop, "Extension", lenient)
        exts.append(ext)
    return tuple(exts)


# The part interners below take a part's whole TLV, parse it from offset 0
# and seed the part's `der` with it.  An extension is keyed with the parse
# mode as well: a lenient parse accepts an explicit FALSE flag that a
# strict one refuses.


def _interned(parse, data: bytes, pos: int, nxt: int, *args):
    """``parse(data[pos:nxt], *args)``; a `MalformedDer` is moved from the
    slice to its offset in ``data``.  Failures are not cached."""
    try:
        return parse(data[pos:nxt], *args)
    except MalformedDer as exc:
        raise MalformedDer(pos + exc.offset, exc.reason) from None


def _sequence_part(parse, data: bytes, pos: int, end: int, what: str, *args):
    """Frame the SEQUENCE ``what`` at ``pos``, intern it through `_interned`
    and return it with the position after it."""
    nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, what)[2]
    return _interned(parse, data, pos, nxt, *args), nxt


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _algorithm(der: bytes) -> AlgorithmId:
    _, astart, astop, _ = asn1.read_tlv(der, 0, len(der))
    ostart, ostop, opos = asn1.expect_tlv(der, astart, astop, asn1.OBJECT_IDENTIFIER, "algorithm OID")
    alg = AlgorithmId(asn1.decode_oid_content(der[ostart:ostop], ostart), der[opos:astop])
    alg.__dict__["der"] = der
    return alg


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _name(der: bytes) -> Name:
    _, nstart, nstop, _ = asn1.read_tlv(der, 0, len(der))
    rdns = []
    p = nstart
    while p < nstop:
        rstart, rstop, p = asn1.expect_tlv(der, p, nstop, asn1.SET, "RelativeDistinguishedName")
        attrs = []
        q = rstart
        while q < rstop:
            astart, astop, q = asn1.expect_tlv(der, q, rstop, asn1.SEQUENCE, "AttributeTypeAndValue")
            ostart, ostop, opos = asn1.expect_tlv(der, astart, astop, asn1.OBJECT_IDENTIFIER, "attribute type")
            vtag, vstart, vstop, vnxt = asn1.read_tlv(der, opos, astop)
            if vnxt != astop:
                raise MalformedDer(vnxt, "trailing bytes in AttributeTypeAndValue")
            attrs.append(NameAttribute(asn1.decode_oid_content(der[ostart:ostop], ostart), vtag, der[vstart:vstop]))
        if not attrs:
            raise MalformedDer(rstart, "empty RelativeDistinguishedName")
        rdns.append(tuple(attrs))
    name = Name(tuple(rdns))
    name.__dict__["der"] = der
    return name


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _time(der: bytes) -> TimeValue:
    tag, start, stop, _ = asn1.read_tlv(der, 0, len(der))
    value = TimeValue(asn1.decode_time(tag, der[start:stop], start), tag)
    value.__dict__["der"] = der
    return value


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _extension(der: bytes, lenient: bool) -> Extension:
    _, estart, estop, _ = asn1.read_tlv(der, 0, len(der))
    ostart, ostop, q = asn1.expect_tlv(der, estart, estop, asn1.OBJECT_IDENTIFIER, "extnID")
    ext_oid = asn1.decode_oid_content(der[ostart:ostop], ostart)
    critical, critical_encoded = False, False
    tag, bstart, bstop, nxt = asn1.read_tlv(der, q, estop)
    if tag == asn1.BOOLEAN:
        q = nxt
        critical = asn1.decode_bool_content(der[bstart:bstop], bstart)
        critical_encoded = True
        if not critical and not lenient:
            raise MalformedDer(bstart, "criticality FALSE must be omitted in DER")
    vstart, vstop, q = asn1.expect_tlv(der, q, estop, asn1.OCTET_STRING, "extnValue")
    if q != estop:
        raise MalformedDer(q, "trailing bytes in Extension")
    ext = Extension(ext_oid, critical, der[vstart:vstop], critical_encoded)
    ext.__dict__["der"] = der
    return ext


# ---------------------------------------------------------------------------
# Encoding

def encode_tbs(cert: Certificate) -> bytes:
    """Re-serialize the TBS from the structured fields."""
    body = []
    if cert.version_present or cert.version != 1:
        body.append(asn1.tlv(asn1.CTX_0_EXPLICIT, asn1.tlv(asn1.INTEGER, asn1.encode_int_content(cert.version - 1))))
    body += (
        asn1.tlv(asn1.INTEGER, cert.serial_raw),
        cert.signature_algorithm.der,
        cert.issuer.der,
        asn1.tlv(asn1.SEQUENCE, cert.not_before.der + cert.not_after.der),
        cert.subject.der,
        cert.public_key_info.der,
        cert.unique_ids_raw,
    )
    if cert.extensions:
        exts = b"".join([ext.der for ext in cert.extensions])
        body.append(asn1.tlv(asn1.CTX_3_EXPLICIT, asn1.tlv(asn1.SEQUENCE, exts)))
    return asn1.tlv(asn1.SEQUENCE, b"".join(body))


def encode_der(cert: Certificate) -> bytes:
    """Serialize a certificate.

    A parsed certificate reproduces its original bytes exactly; an edited
    copy gets a freshly built TBS with the original signature carried over.
    """
    return cert.encoding


# ---------------------------------------------------------------------------
# PEM armor

_PEM_BEGIN = "-----BEGIN CERTIFICATE-----"
_PEM_END = "-----END CERTIFICATE-----"
_PEM_RE = re.compile(
    r"-----BEGIN CERTIFICATE-----\s*(?P<body>[A-Za-z0-9+/=\s]*?)-----END CERTIFICATE-----",
    re.DOTALL,
)


def pem_encode(der: bytes) -> str:
    body = base64.b64encode(der).decode("ascii")
    lines = [body[i : i + 64] for i in range(0, len(body), 64)]
    return "\n".join([_PEM_BEGIN, *lines, _PEM_END]) + "\n"


def pem_decode(text: str) -> bytes:
    match = _PEM_RE.search(text)
    if match is None:
        raise MalformedPem("no CERTIFICATE armor found")
    body = "".join(match.group("body").split())
    try:
        return base64.b64decode(body, validate=True)
    except Exception as exc:
        raise MalformedPem(f"invalid base64 body: {exc}") from exc


# ---------------------------------------------------------------------------
# Mock signatures

def mock_sign(tbs_bytes: bytes, signer_tag: str) -> bytes:
    """Deterministic keyed digest standing in for a real signature.

    Simulated verifiers recompute this over a certificate's TBS bytes with
    the trust-store tag of its issuer; any TBS change breaks the match.
    """
    h = hashlib.sha256()
    h.update(b"diffcert-mock-sign\x00")
    h.update(signer_tag.encode("utf-8"))
    h.update(b"\x00")
    h.update(tbs_bytes)
    return h.digest()


def signature_bits(tbs_bytes: bytes, signer_tag: str) -> bytes:
    """BIT STRING content (pad byte plus digest) for a mock signature."""
    return b"\x00" + mock_sign(tbs_bytes, signer_tag)


# ---------------------------------------------------------------------------
# Synthetic builder

@dataclass(frozen=True)
class ExtensionParam:
    oid: str
    critical: bool = False
    value: bytes | None = None  # None selects the builder default for the type


def _dns_name(value: str) -> bytes:
    # GeneralName dNSName is [2] IMPLICIT IA5String (primitive)
    return asn1.tlv(0x82, value.encode("ascii"))


def _uri_name(value: str) -> bytes:
    return asn1.tlv(0x86, value.encode("ascii"))


def default_extension_value(ext_oid: str, params: "SeedParams", rng: random.Random) -> bytes:
    """Builder-default inner DER for a known extension type."""
    if ext_oid == oid.BASIC_CONSTRAINTS:
        return asn1.tlv(asn1.SEQUENCE, b"")  # leaf: cA defaults to FALSE
    if ext_oid == oid.KEY_USAGE:
        return asn1.tlv(asn1.BIT_STRING, b"\x05\xa0")  # digitalSignature, keyEncipherment
    if ext_oid == oid.EXT_KEY_USAGE:
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.EKU_SERVER_AUTH)))
    if ext_oid == oid.SUBJECT_ALT_NAME:
        host = params.subject_common_name or "invalid.test"
        return asn1.tlv(asn1.SEQUENCE, _dns_name(host))
    if ext_oid == oid.AUTHORITY_KEY_ID:
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(0x80, rng.randbytes(20)))
    if ext_oid == oid.SUBJECT_KEY_ID:
        return asn1.tlv(asn1.OCTET_STRING, rng.randbytes(20))
    if ext_oid == oid.CRL_DISTRIBUTION_POINTS:
        point = asn1.tlv(0xA0, asn1.tlv(0xA0, _uri_name("http://crl.example.test/r1.crl")))
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.SEQUENCE, point))
    if ext_oid == oid.CERTIFICATE_POLICIES:
        policy = asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content("1.3.6.1.4.1.99999.1.1"))
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.SEQUENCE, policy))
    if ext_oid == oid.AUTHORITY_INFO_ACCESS:
        access = asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.AD_OCSP)) + _uri_name("http://ocsp.example.test")
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.SEQUENCE, access))
    if ext_oid == oid.NAME_CONSTRAINTS:
        subtree = asn1.tlv(asn1.SEQUENCE, _dns_name("example.test"))
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(0xA0, subtree))
    if ext_oid == oid.SCT_LIST:
        return asn1.tlv(asn1.OCTET_STRING, rng.randbytes(8))
    return asn1.tlv(asn1.OCTET_STRING, rng.randbytes(4))


DEFAULT_EXTENSION_PARAMS: tuple[ExtensionParam, ...] = (
    ExtensionParam(oid.BASIC_CONSTRAINTS, critical=True),
    ExtensionParam(oid.KEY_USAGE, critical=True),
    ExtensionParam(oid.EXT_KEY_USAGE),
    ExtensionParam(oid.SUBJECT_ALT_NAME),
    ExtensionParam(oid.AUTHORITY_KEY_ID),
    ExtensionParam(oid.SUBJECT_KEY_ID),
    ExtensionParam(oid.CRL_DISTRIBUTION_POINTS),
    ExtensionParam(oid.CERTIFICATE_POLICIES),
    ExtensionParam(oid.AUTHORITY_INFO_ACCESS),
    ExtensionParam(oid.NAME_CONSTRAINTS),
    ExtensionParam(oid.SCT_LIST),
)


@dataclass(frozen=True)
class SeedParams:
    """Inputs to the synthetic certificate builder.

    Validity bounds are offsets in seconds from ``REFERENCE_TIME``.
    ``subject_common_name=None`` with ``subject_country=None`` builds an
    empty subject name (a fixture knob, not something the default corpus
    produces).
    """

    version: int = 3
    serial: int | None = None  # None derives a positive serial from the rng
    not_before_offset: int = -ONE_YEAR
    not_after_offset: int = ONE_YEAR
    issuer_common_name: str = "Acme Root CA"
    issuer_country: str | None = "DE"
    subject_common_name: str | None = "server.example.test"
    subject_country: str | None = "FR"
    key_bits: int = 2048
    sig_alg_oid: str = oid.SHA256_RSA
    extensions: tuple[ExtensionParam, ...] = DEFAULT_EXTENSION_PARAMS
    signer_tag: str = "acme-root"
    use_generalized_time: bool = False


def _validate_params(params: SeedParams) -> None:
    if not 1 <= params.version <= 4:
        raise InvalidParams(f"version {params.version} is out of range 1..4")
    if params.version < 3 and params.extensions:
        raise InvalidParams("v1/v2 seeds cannot carry extensions; mutations create those")
    if params.key_bits % 8 or not 256 <= params.key_bits <= 8192:
        raise InvalidParams(f"key_bits {params.key_bits} out of range")
    for code in (params.issuer_country, params.subject_country):
        if code is not None and (len(code) != 2 or not code.isascii()):
            raise InvalidParams(f"country code {code!r} must be two ASCII characters")
    if params.serial is not None and len(asn1.encode_int_content(params.serial)) > 40:
        raise InvalidParams("serial exceeds 40 octets")
    for span in (params.not_before_offset, params.not_after_offset):
        if abs(span) > 400 * ONE_YEAR:
            raise InvalidParams("validity offset exceeds 400 years")


def build_name(common_name: str | None, country: str | None) -> Name:
    """The name a synthetic certificate gives a CA or subject: a country
    RDN, then a common-name RDN, each left out when None."""
    rdns = []
    if country is not None:
        rdns.append((NameAttribute(oid.COUNTRY, asn1.PRINTABLE_STRING, country.encode("ascii")),))
    if common_name is not None:
        rdns.append((NameAttribute(oid.CN, asn1.UTF8_STRING, common_name.encode("utf-8")),))
    return Name(tuple(rdns))


def build_synthetic(params: SeedParams, rng_seed: int) -> Certificate:
    """Build a deterministic synthetic certificate signed with the mock scheme.

    The same ``(params, rng_seed)`` pair always yields byte-identical
    output.  The result is produced by parsing the assembled bytes so its
    structured fields are exactly what :func:`parse_der` would deliver.
    """
    _validate_params(params)
    rng = random.Random(rng_seed)

    serial = params.serial if params.serial is not None else rng.getrandbits(63) | 1
    serial_raw = asn1.encode_int_content(serial)
    time_tag = asn1.GENERALIZED_TIME if params.use_generalized_time else asn1.UTC_TIME
    not_before = TimeValue(REFERENCE_TIME + dt.timedelta(seconds=params.not_before_offset), time_tag)
    not_after = TimeValue(REFERENCE_TIME + dt.timedelta(seconds=params.not_after_offset), time_tag)

    key_body = rng.randbytes(params.key_bits // 8)
    spki = PublicKeyInfo(AlgorithmId(oid.RSA_ENCRYPTION), b"\x00" + key_body)

    extensions = tuple(
        Extension(p.oid, p.critical, p.value if p.value is not None else default_extension_value(p.oid, params, rng))
        for p in params.extensions
    )

    sig_alg = AlgorithmId(params.sig_alg_oid)
    skeleton = Certificate(
        version=params.version,
        version_present=params.version != 1,
        serial=serial,
        serial_raw=serial_raw,
        signature_algorithm=sig_alg,
        issuer=build_name(params.issuer_common_name, params.issuer_country),
        subject=build_name(params.subject_common_name, params.subject_country),
        not_before=not_before,
        not_after=not_after,
        public_key_info=spki,
        extensions=extensions,
        outer_sig_alg_raw=sig_alg.der,
    )
    tbs = encode_tbs(skeleton)
    cert_bytes = asn1.tlv(
        asn1.SEQUENCE,
        tbs + skeleton.outer_sig_alg_raw + asn1.tlv(asn1.BIT_STRING, signature_bits(tbs, params.signer_tag)),
    )
    return parse_der(cert_bytes)
