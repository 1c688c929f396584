"""Lossless X.509 certificate model: strict DER parse/encode, PEM armor,
a deterministic synthetic-certificate builder and a mock signature scheme.

The model is deliberately partial: the TBS fields that the fuzzer mutates
and featurizes are fully structured, everything else is kept as opaque
byte ranges and re-emitted verbatim.  An unmodified certificate always
re-encodes to its original bytes; a mutated one has its TBS re-serialized
from the structured fields while the (now stale) signature bytes are
carried over unchanged -- mutants are never re-signed.  Every part is
immutable and caches its own DER and the facts read from it, so a mutant
re-encodes and re-derives only the parts an edit replaced.
"""

from __future__ import annotations

import base64
import datetime as dt
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

    def attributes(self):
        for rdn in self.rdns:
            yield from rdn

    def first(self, attr_oid: str) -> NameAttribute | None:
        for attr in self.attributes():
            if attr.oid == attr_oid:
                return attr
        return None

    def country(self) -> str | None:
        return self._country

    @_cached
    def _country(self) -> str | None:
        attr = self.first(oid.COUNTRY)
        return attr.text() if attr is not None else None

    @_cached
    def odd_countries(self) -> int:
        """How many country attributes are not two octets long."""
        return sum(attr.oid == oid.COUNTRY and len(attr.value) != 2 for attr in self.attributes())

    def with_country(self, code: str) -> "Name":
        """Return a copy with the country attribute set (appended if absent)."""
        new_attr = NameAttribute(oid.COUNTRY, asn1.PRINTABLE_STRING, code.encode("ascii"))
        if self.first(oid.COUNTRY) is None:
            return Name(self.rdns + ((new_attr,),))
        done = False
        rdns = []
        for rdn in self.rdns:
            attrs = []
            for attr in rdn:
                if attr.oid == oid.COUNTRY and not done:
                    attrs.append(new_attr)
                    done = True
                else:
                    attrs.append(attr)
            rdns.append(tuple(attrs))
        return Name(tuple(rdns))

    def without_country(self) -> "Name":
        rdns = []
        for rdn in self.rdns:
            attrs = tuple(a for a in rdn if a.oid != oid.COUNTRY)
            if attrs:
                rdns.append(attrs)
        return Name(tuple(rdns))

    def der(self) -> bytes:
        return self._der

    @_cached
    def _der(self) -> bytes:
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

    @_cached
    def seconds(self) -> int:
        """Whole seconds since the epoch.  Parsed and mutated bounds carry
        no fraction, so adding ``k`` seconds here equals the timestamp of
        ``at`` moved by ``k`` seconds, even where that moved datetime
        would fall past year 9999."""
        return int(self.at.timestamp())

    def der(self) -> bytes:
        return self._der

    @_cached
    def _der(self) -> bytes:
        return asn1.tlv(*asn1.encode_time(self.at, self.tag))


@dataclass(frozen=True)
class AlgorithmId:
    oid: str
    params_raw: bytes = b"\x05\x00"  # raw TLVs following the OID, NULL by default

    def der(self) -> bytes:
        return self._der

    @_cached
    def _der(self) -> bytes:
        return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(self.oid)) + self.params_raw)


@dataclass(frozen=True)
class PublicKeyInfo:
    """subjectPublicKeyInfo: opaque algorithm, BIT STRING content kept raw."""

    algorithm_raw: bytes  # full AlgorithmIdentifier TLV
    algorithm_oid: str
    key_raw: bytes  # BIT STRING content octets, pad-count byte included

    @property
    def bit_length(self) -> int:
        if len(self.key_raw) < 1:
            return 0
        return max(0, (len(self.key_raw) - 1) * 8 - self.key_raw[0])

    def der(self) -> bytes:
        return self._der

    @_cached
    def _der(self) -> bytes:
        return asn1.tlv(asn1.SEQUENCE, self.algorithm_raw + asn1.tlv(asn1.BIT_STRING, self.key_raw))


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

    def __post_init__(self):
        if self.critical_encoded is None:
            object.__setattr__(self, "critical_encoded", self.critical)

    def der(self) -> bytes:
        return self._der

    @_cached
    def _der(self) -> bytes:
        body = asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(self.oid))
        if self.critical_encoded:
            body += asn1.tlv(asn1.BOOLEAN, b"\xff" if self.critical else b"\x00")
        body += asn1.tlv(asn1.OCTET_STRING, self.value)
        return asn1.tlv(asn1.SEQUENCE, body)


@dataclass(frozen=True)
class Certificate:
    """Structured TBS fields plus the opaque regions needed for re-encoding.

    Immutable.  ``encoding`` is the one holder of a certificate's bytes:
    :func:`parse_der` seeds it with the parsed bytes, and any other
    instance -- built directly or copied with ``dataclasses.replace`` --
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

    def issuer_der(self) -> bytes:
        return self.issuer.der()

    def subject_der(self) -> bytes:
        return self.subject.der()

    def extension(self, ext_oid: str) -> Extension | None:
        for ext in self.extensions:
            if ext.oid == ext_oid:
                return ext
        return None

    @_cached
    def encoding(self) -> tuple[bytes, bytes]:
        """(TBS, whole certificate) DER, built from the fields with the
        original signature carried over (a parsed certificate holds its
        parsed bytes here instead)."""
        tbs = encode_tbs(self)
        return tbs, asn1.tlv(asn1.SEQUENCE, tbs + self.outer_sig_alg_raw + asn1.tlv(asn1.BIT_STRING, self.signature_value))

    @_cached
    def strict_der(self) -> bool:
        """False when an extension encodes a FALSE criticality flag: the one
        leniency ``parse_der(lenient=True)`` tolerates, so a lenient parse
        that reads True here is also a strict one."""
        return not any(ext.critical_encoded and not ext.critical for ext in self.extensions)


# ---------------------------------------------------------------------------
# Parsing

def parse_der(data: bytes, *, lenient: bool = False) -> Certificate:
    """Parse a DER-encoded certificate.

    Strict by default: any BER leniency raises :class:`MalformedDer`.
    ``lenient=True`` additionally tolerates an explicitly encoded FALSE
    extension-criticality flag (a mutation this fuzzer emits on purpose);
    the flag's encoding is preserved so the round-trip stays byte-exact.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_der expects bytes")
    data = bytes(data)
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
    cert.__dict__["encoding"] = (tbs_raw, data)  # seeds the cached slot: no re-encoding
    return cert


def _parse_tbs(data: bytes, pos: int, end: int, *, lenient: bool) -> dict:
    version, version_present = 1, False
    tag, _, _, _ = asn1.read_tlv(data, pos, end)
    if tag == asn1.CTX_0_EXPLICIT:
        vstart, vstop, pos = asn1.read_tlv(data, pos, end)[1:]
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

    sig_alg, pos = _parse_algorithm(data, pos, end)
    issuer, pos = _parse_name(data, pos, end)

    vstart, vstop, pos = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "validity")
    not_before, vpos = _parse_time(data, vstart, vstop)
    not_after, vpos = _parse_time(data, vpos, vstop)
    if vpos != vstop:
        raise MalformedDer(vpos, "trailing bytes in validity")

    subject, pos = _parse_name(data, pos, end)
    spki, pos = _parse_spki(data, pos, end)

    unique_start = pos
    while pos < end:
        tag, _, _, nxt = asn1.read_tlv(data, pos, end)
        if tag in (asn1.CTX_1_PRIMITIVE, asn1.CTX_2_PRIMITIVE):
            pos = nxt
        else:
            break
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


def _parse_algorithm(data: bytes, pos: int, end: int) -> tuple[AlgorithmId, int]:
    astart, astop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "AlgorithmIdentifier")
    ostart, ostop, opos = asn1.expect_tlv(data, astart, astop, asn1.OBJECT_IDENTIFIER, "algorithm OID")
    return AlgorithmId(asn1.decode_oid_content(data[ostart:ostop], ostart), data[opos:astop]), nxt


def _parse_name(data: bytes, pos: int, end: int) -> tuple[Name, int]:
    nstart, nstop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "Name")
    rdns = []
    p = nstart
    while p < nstop:
        rstart, rstop, p = asn1.expect_tlv(data, p, nstop, asn1.SET, "RelativeDistinguishedName")
        attrs = []
        q = rstart
        while q < rstop:
            astart, astop, q = asn1.expect_tlv(data, q, rstop, asn1.SEQUENCE, "AttributeTypeAndValue")
            ostart, ostop, opos = asn1.expect_tlv(data, astart, astop, asn1.OBJECT_IDENTIFIER, "attribute type")
            vtag, vstart, vstop, vnxt = asn1.read_tlv(data, opos, astop)
            if vnxt != astop:
                raise MalformedDer(vnxt, "trailing bytes in AttributeTypeAndValue")
            attrs.append(NameAttribute(asn1.decode_oid_content(data[ostart:ostop], ostart), vtag, data[vstart:vstop]))
        if not attrs:
            raise MalformedDer(rstart, "empty RelativeDistinguishedName")
        rdns.append(tuple(attrs))
    return Name(tuple(rdns)), nxt


def _parse_time(data: bytes, pos: int, end: int) -> tuple[TimeValue, int]:
    tag, start, stop, nxt = asn1.read_tlv(data, pos, end)
    if tag not in (asn1.UTC_TIME, asn1.GENERALIZED_TIME):
        raise UnsupportedStructure(f"validity time has tag 0x{tag:02x}")
    return TimeValue(asn1.decode_time(tag, data[start:stop], start), tag), nxt


def _parse_spki(data: bytes, pos: int, end: int) -> tuple[PublicKeyInfo, int]:
    pstart, pstop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "subjectPublicKeyInfo")
    atag, astart, astop, apos = asn1.read_tlv(data, pstart, pstop)
    if atag != asn1.SEQUENCE:
        raise UnsupportedStructure("SPKI algorithm is not a SEQUENCE")
    algorithm_raw = data[pstart:apos]
    ostart, ostop, _ = asn1.expect_tlv(data, astart, astop, asn1.OBJECT_IDENTIFIER, "SPKI algorithm OID")
    algorithm_oid = asn1.decode_oid_content(data[ostart:ostop], ostart)
    kstart, kstop, kpos = asn1.expect_tlv(data, apos, pstop, asn1.BIT_STRING, "subjectPublicKey")
    if kpos != pstop:
        raise MalformedDer(kpos, "trailing bytes in subjectPublicKeyInfo")
    key_raw = data[kstart:kstop]
    _check_bit_string(key_raw, kstart)
    return PublicKeyInfo(algorithm_raw, algorithm_oid, key_raw), nxt


def _check_bit_string(content: bytes, offset: int) -> None:
    if not content:
        raise MalformedDer(offset, "empty BIT STRING")
    if content[0] > 7 or (len(content) == 1 and content[0] != 0):
        raise MalformedDer(offset, "invalid BIT STRING pad count")


def _parse_extensions(data: bytes, pos: int, end: int, *, lenient: bool) -> tuple[Extension, ...]:
    lstart, lstop, nxt = asn1.expect_tlv(data, pos, end, asn1.SEQUENCE, "extensions list")
    if nxt != end:
        raise MalformedDer(nxt, "trailing bytes after the extensions list")
    exts = []
    p = lstart
    while p < lstop:
        estart, estop, p = asn1.expect_tlv(data, p, lstop, asn1.SEQUENCE, "Extension")
        ostart, ostop, q = asn1.expect_tlv(data, estart, estop, asn1.OBJECT_IDENTIFIER, "extnID")
        ext_oid = asn1.decode_oid_content(data[ostart:ostop], ostart)
        critical, critical_encoded = False, False
        tag, _, _, _ = asn1.read_tlv(data, q, estop)
        if tag == asn1.BOOLEAN:
            bstart, bstop, q = asn1.read_tlv(data, q, estop)[1:]
            critical = asn1.decode_bool_content(data[bstart:bstop], bstart)
            critical_encoded = True
            if not critical and not lenient:
                raise MalformedDer(bstart, "criticality FALSE must be omitted in DER")
        vstart, vstop, q = asn1.expect_tlv(data, q, estop, asn1.OCTET_STRING, "extnValue")
        if q != estop:
            raise MalformedDer(q, "trailing bytes in Extension")
        exts.append(Extension(ext_oid, critical, data[vstart:vstop], critical_encoded))
    return tuple(exts)


# ---------------------------------------------------------------------------
# Encoding

def encode_tbs(cert: Certificate) -> bytes:
    """Re-serialize the TBS from the structured fields."""
    body = b""
    if cert.version_present or cert.version != 1:
        body += asn1.tlv(asn1.CTX_0_EXPLICIT, asn1.tlv(asn1.INTEGER, asn1.encode_int_content(cert.version - 1)))
    body += asn1.tlv(asn1.INTEGER, cert.serial_raw)
    body += cert.signature_algorithm.der()
    body += cert.issuer.der()
    body += asn1.tlv(asn1.SEQUENCE, cert.not_before.der() + cert.not_after.der())
    body += cert.subject.der()
    body += cert.public_key_info.der()
    body += cert.unique_ids_raw
    if cert.extensions:
        exts = b"".join(ext.der() for ext in cert.extensions)
        body += asn1.tlv(asn1.CTX_3_EXPLICIT, asn1.tlv(asn1.SEQUENCE, exts))
    return asn1.tlv(asn1.SEQUENCE, body)


def encode_der(cert: Certificate) -> bytes:
    """Serialize a certificate.

    A parsed certificate reproduces its original bytes exactly; an edited
    copy gets a freshly built TBS with the original signature carried over.
    """
    return cert.encoding[1]


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

    Validity bounds are offsets in seconds from ``reference_time``.
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
    reference_time: dt.datetime = REFERENCE_TIME


def default_params() -> SeedParams:
    return SeedParams()


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


def _build_name(common_name: str | None, country: str | None) -> Name:
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
    not_before = TimeValue(params.reference_time + dt.timedelta(seconds=params.not_before_offset), time_tag)
    not_after = TimeValue(params.reference_time + dt.timedelta(seconds=params.not_after_offset), time_tag)

    key_body = rng.randbytes(params.key_bits // 8)
    spki = PublicKeyInfo(
        algorithm_raw=AlgorithmId(oid.RSA_ENCRYPTION).der(),
        algorithm_oid=oid.RSA_ENCRYPTION,
        key_raw=b"\x00" + key_body,
    )

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
        issuer=_build_name(params.issuer_common_name, params.issuer_country),
        subject=_build_name(params.subject_common_name, params.subject_country),
        not_before=not_before,
        not_after=not_after,
        public_key_info=spki,
        extensions=extensions,
        outer_sig_alg_raw=sig_alg.der(),
    )
    tbs = encode_tbs(skeleton)
    cert_bytes = asn1.tlv(
        asn1.SEQUENCE,
        tbs + skeleton.outer_sig_alg_raw + asn1.tlv(asn1.BIT_STRING, signature_bits(tbs, params.signer_tag)),
    )
    return parse_der(cert_bytes)
