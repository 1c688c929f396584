"""The catalog of 86 certificate modification actions -- the Q-network's
action space -- and their application/replay machinery.

Every action is a total, deterministic, pure function on certificates:
the input is never touched, the output always re-encodes, and actions
whose precondition does not hold (deleting an absent extension, writing a
value a field already has) degrade to no-ops rather than failing.  The
learning loop penalizes useless picks through the reward, not through
errors.  An edit that builds a name, validity bound, algorithm or
extension returns one shared instance per distinct result, so its DER
and facts are computed once per process.
"""

from __future__ import annotations

import datetime as dt
import enum
import functools
from dataclasses import dataclass, replace

from . import asn1, x509oids as oid
from .certs import (
    PART_CACHE_LIMIT,
    REFERENCE_TIME,
    AlgorithmId,
    Certificate,
    Extension,
    Name,
    TimeValue,
    copy_certificate,
)

CATALOG_SIZE = 86
MAX_TRACE_LENGTH = 10  # mutants per seed: the campaign's modification budget


class Family(enum.Enum):
    VERSION = "version"
    SERIAL = "serial"
    VALIDITY = "validity"
    SIG_ALG = "sig_alg"
    NAME = "name"
    KEY = "key"
    EXTENSION = "extension"


@dataclass(frozen=True)
class ActionSpec:
    id: int
    family: Family
    description: str


class InvalidTrace(ValueError):
    """An action trace violates the catalog bounds."""


class UnknownSeed(KeyError):
    """A stored seed id is not present in the corpus."""


def validate_trace(actions) -> tuple[int, ...]:
    actions = tuple(int(a) for a in actions)
    if len(actions) > MAX_TRACE_LENGTH:
        raise InvalidTrace(f"trace length {len(actions)} exceeds {MAX_TRACE_LENGTH}")
    for a in actions:
        if not 0 <= a < CATALOG_SIZE:
            raise InvalidTrace(f"action id {a} outside 0..{CATALOG_SIZE - 1}")
    return actions


# ---------------------------------------------------------------------------
# Primitive edits

def _set_version(cert: Certificate, value: int) -> Certificate:
    return copy_certificate(cert, version=value, version_present=value != 1)


def _set_serial(cert: Certificate, value: int) -> Certificate:
    return copy_certificate(cert, serial=value, serial_raw=asn1.encode_int_content(value))


def _pad_serial(cert: Certificate, octets: int) -> Certificate:
    """Grow the serial to a fixed octet count, keeping it minimal-positive."""
    body = cert.serial_raw or b"\x00"
    raw = (b"\x01" + body * (octets // len(body) + 1))[:octets]
    return copy_certificate(cert, serial=int.from_bytes(raw, "big", signed=True), serial_raw=raw)


# Edits that build a part return one shared instance per distinct result.
# Each is cached on the part it edits plus fixed arguments; a part hashes
# by its DER and compares by its fields.  Parts are immutable and their
# cached facts are functions of their fields, so a repeated edit is one
# lookup and its result's DER and facts are computed once per process.
# Each cache holds at most `PART_CACHE_LIMIT` parts.  A resized key is not
# interned: doubling makes it twice its input, so a cache bounded by count
# could hold chains of doublings of hundreds of KB each.


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _name_with_country(name: Name, code: str | None) -> Name:
    """The name with its first country set to ``code``, or with none when ``code`` is None."""
    return name.without_country() if code is None else name.with_country(code)


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _shifted_time(t: TimeValue, years: int) -> TimeValue:
    at = t.at.astimezone(asn1.UTC)  # as encoded: bounds equal as instants shift alike
    year = min(max(at.year + years, 1), 9999)
    try:
        moved = at.replace(year=year)
    except ValueError:  # Feb 29 in a non-leap target year
        moved = at.replace(year=year, day=28)
    # tagged as encoded: a UTCTime bound moved out of 1950-2049 is GeneralizedTime
    return TimeValue(moved, asn1.time_tag(moved, t.tag))


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _time_at(tag: int, now: dt.datetime) -> TimeValue:
    """A bound at ``now`` that keeps the tag ``tag`` where it can."""
    at = now.replace(microsecond=0)
    return TimeValue(at, asn1.time_tag(at, tag))


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _algorithm_with_oid(alg: AlgorithmId, alg_oid: str) -> AlgorithmId:
    return AlgorithmId(alg_oid, alg.params_raw)


@functools.lru_cache(maxsize=PART_CACHE_LIMIT)
def _edited_extension(ext: Extension, value: bytes | None, critical: bool | None) -> Extension:
    """The extension with ``value`` written, or else its flag set to
    ``critical`` and encoded explicitly, even when FALSE."""
    if critical is None:
        return replace(ext, value=value)
    return replace(ext, critical=critical, critical_encoded=True)


def _resize_key(cert: Certificate, factor: float) -> Certificate:
    spki = cert.public_key_info
    body = spki.key_raw[1:] if len(spki.key_raw) > 1 else b""
    if factor > 1:
        body = body + body if body else b"\x00"
    else:
        body = body[: max(1, len(body) // 2)]
    return copy_certificate(cert, public_key_info=replace(spki, key_raw=b"\x00" + body))


# Per-type inner DER written by the add-with-default-value action; values
# deliberately differ from the synthetic builder's fixture values so that
# "add" changes bytes on certificates that already carry the extension.
ADD_DEFAULT_VALUES: dict[str, bytes] = {
    oid.BASIC_CONSTRAINTS: bytes.fromhex("30030101ff"),  # cA TRUE
    oid.KEY_USAGE: bytes.fromhex("03020106"),  # keyCertSign, cRLSign
    oid.EXT_KEY_USAGE: asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.EKU_CLIENT_AUTH))),
    oid.SUBJECT_ALT_NAME: asn1.tlv(asn1.SEQUENCE, asn1.tlv(0x87, bytes([203, 0, 113, 7]))),  # iPAddress
    oid.AUTHORITY_KEY_ID: asn1.tlv(asn1.SEQUENCE, asn1.tlv(0x80, b"\xab" * 20)),
    oid.SUBJECT_KEY_ID: asn1.tlv(asn1.OCTET_STRING, b"\xcd" * 20),
    oid.CRL_DISTRIBUTION_POINTS: asn1.tlv(
        asn1.SEQUENCE,
        asn1.tlv(asn1.SEQUENCE, asn1.tlv(0xA0, asn1.tlv(0xA0, asn1.tlv(0x86, b"http://crl.invalid/x.crl")))),
    ),
    oid.CERTIFICATE_POLICIES: asn1.tlv(
        asn1.SEQUENCE, asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.ANY_POLICY)))
    ),
    oid.AUTHORITY_INFO_ACCESS: asn1.tlv(
        asn1.SEQUENCE,
        asn1.tlv(
            asn1.SEQUENCE,
            asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.AD_OCSP)) + asn1.tlv(0x86, b"http://ocsp.invalid"),
        ),
    ),
    oid.NAME_CONSTRAINTS: asn1.tlv(asn1.SEQUENCE, asn1.tlv(0xA0, asn1.tlv(asn1.SEQUENCE, asn1.tlv(0x82, b"example.org")))),
    oid.SCT_LIST: asn1.tlv(asn1.OCTET_STRING, b"\xab\xcd"),
}

EXTENSION_TARGET_NAMES: dict[str, str] = {
    oid.BASIC_CONSTRAINTS: "basicConstraints",
    oid.KEY_USAGE: "keyUsage",
    oid.EXT_KEY_USAGE: "extKeyUsage",
    oid.SUBJECT_ALT_NAME: "subjectAltName",
    oid.AUTHORITY_KEY_ID: "authorityKeyIdentifier",
    oid.SUBJECT_KEY_ID: "subjectKeyIdentifier",
    oid.CRL_DISTRIBUTION_POINTS: "cRLDistributionPoints",
    oid.CERTIFICATE_POLICIES: "certificatePolicies",
    oid.AUTHORITY_INFO_ACCESS: "authorityInfoAccess",
    oid.NAME_CONSTRAINTS: "nameConstraints",
    oid.SCT_LIST: "privateExtension(sctList)",
}
EXTENSION_TARGETS: tuple[str, ...] = tuple(EXTENSION_TARGET_NAMES)

# One fixed malformed blob per type: a SEQUENCE header promising five
# content bytes but delivering two, plus a type-index marker byte.
CORRUPT_VALUES: dict[str, bytes] = {
    ext_oid: b"\x30\x05\xde" + bytes([i]) for i, ext_oid in enumerate(EXTENSION_TARGETS)
}


def _delete_extension(cert: Certificate, ext_oid: str) -> Certificate:
    exts = tuple(e for e in cert.extensions if e.oid != ext_oid)
    return copy_certificate(cert, extensions=exts)


# The extension an edit on an absent type starts from: one with the type's
# default value and no flag on the wire, as the "add" action writes it.
_ABSENT_EXTENSIONS: dict[str, Extension] = {
    ext_oid: Extension(ext_oid, value=value) for ext_oid, value in ADD_DEFAULT_VALUES.items()
}


def _upsert(cert: Certificate, ext_oid: str, value: bytes | None = None, critical: bool | None = None) -> Certificate:
    """Apply `_edited_extension` to the first extension of type
    ``ext_oid``, or append one made by applying it to the type's default."""
    exts = cert.extensions
    for i, ext in enumerate(exts):
        if ext.oid == ext_oid:
            edited = _edited_extension(ext, value, critical)
            return copy_certificate(cert, extensions=exts[:i] + (edited,) + exts[i + 1 :])
    return copy_certificate(cert, extensions=exts + (_edited_extension(_ABSENT_EXTENSIONS[ext_oid], value, critical),))


# ---------------------------------------------------------------------------
# Catalog assembly

SIG_ALG_MENU: tuple[tuple[str, str], ...] = (
    (oid.MD5_RSA, "md5WithRSAEncryption"),
    (oid.SHA1_RSA, "sha1WithRSAEncryption"),
    (oid.SHA384_RSA, "sha384WithRSAEncryption"),
    (oid.SHA512_RSA, "sha512WithRSAEncryption"),
    (oid.ECDSA_SHA256, "ecdsa-with-SHA256"),
    (oid.DSA_SHA256, "dsa-with-SHA256"),
)


def _build_catalog():
    specs: list[ActionSpec] = []
    ops: list = []

    def add(family, description, fn):
        specs.append(ActionSpec(len(specs), family, description))
        ops.append(fn)

    for v in (1, 2, 3, 4):
        add(Family.VERSION, f"set version to {v}", lambda c, now, v=v: _set_version(c, v))
    add(Family.SERIAL, "negate the serial number", lambda c, now: _set_serial(c, -c.serial))
    add(Family.SERIAL, "set the serial number to 0", lambda c, now: _set_serial(c, 0))
    add(Family.SERIAL, "set the serial number to 1", lambda c, now: _set_serial(c, 1))
    add(Family.SERIAL, "pad the serial number to 21 octets", lambda c, now: _pad_serial(c, 21))
    add(Family.SERIAL, "pad the serial number to 37 octets", lambda c, now: _pad_serial(c, 37))
    add(Family.VALIDITY, "shift notBefore one year earlier", lambda c, now: copy_certificate(c, not_before=_shifted_time(c.not_before, -1)))
    add(Family.VALIDITY, "shift notBefore one year later", lambda c, now: copy_certificate(c, not_before=_shifted_time(c.not_before, 1)))
    add(Family.VALIDITY, "set notBefore to the reference clock", lambda c, now: copy_certificate(c, not_before=_time_at(c.not_before.tag, now)))
    add(Family.VALIDITY, "shift notAfter one year earlier", lambda c, now: copy_certificate(c, not_after=_shifted_time(c.not_after, -1)))
    add(Family.VALIDITY, "shift notAfter one year later", lambda c, now: copy_certificate(c, not_after=_shifted_time(c.not_after, 1)))
    add(Family.VALIDITY, "set notAfter to the reference clock", lambda c, now: copy_certificate(c, not_after=_time_at(c.not_after.tag, now)))
    add(Family.VALIDITY, "swap notBefore and notAfter", lambda c, now: copy_certificate(c, not_before=c.not_after, not_after=c.not_before))
    for alg_oid, alg_name in SIG_ALG_MENU:
        add(
            Family.SIG_ALG,
            f"set signature algorithm to {alg_name}",
            lambda c, now, a=alg_oid: copy_certificate(c, signature_algorithm=_algorithm_with_oid(c.signature_algorithm, a)),
        )
    add(Family.NAME, "set issuer country to US", lambda c, now: copy_certificate(c, issuer=_name_with_country(c.issuer, "US")))
    add(Family.NAME, "set issuer country to CN", lambda c, now: copy_certificate(c, issuer=_name_with_country(c.issuer, "CN")))
    add(Family.NAME, "remove the issuer country", lambda c, now: copy_certificate(c, issuer=_name_with_country(c.issuer, None)))
    add(Family.NAME, "set subject country to US", lambda c, now: copy_certificate(c, subject=_name_with_country(c.subject, "US")))
    add(Family.NAME, "set subject country to CN", lambda c, now: copy_certificate(c, subject=_name_with_country(c.subject, "CN")))
    add(Family.NAME, "remove the subject country", lambda c, now: copy_certificate(c, subject=_name_with_country(c.subject, None)))
    add(Family.NAME, "copy the issuer name into the subject", lambda c, now: copy_certificate(c, subject=c.issuer))
    add(Family.KEY, "halve the declared public-key length", lambda c, now: _resize_key(c, 0.5))
    add(Family.KEY, "double the declared public-key length", lambda c, now: _resize_key(c, 2.0))
    for ext_oid, name in EXTENSION_TARGET_NAMES.items():
        add(Family.EXTENSION, f"delete {name}", lambda c, now, o=ext_oid: _delete_extension(c, o))
        add(Family.EXTENSION, f"add {name} with its default value", lambda c, now, o=ext_oid: _upsert(c, o, value=ADD_DEFAULT_VALUES[o]))
        add(Family.EXTENSION, f"mark {name} critical", lambda c, now, o=ext_oid: _upsert(c, o, critical=True))
        # Writes the flag explicitly even when FALSE: an encoded default is a
        # deliberate DER violation that probes parser strictness downstream.
        add(Family.EXTENSION, f"mark {name} non-critical (flag encoded explicitly)", lambda c, now, o=ext_oid: _upsert(c, o, critical=False))
        add(Family.EXTENSION, f"corrupt the value of {name}", lambda c, now, o=ext_oid: _upsert(c, o, value=CORRUPT_VALUES[o]))

    assert len(specs) == CATALOG_SIZE
    return tuple(specs), tuple(ops)


_CATALOG, _OPS = _build_catalog()


def catalog() -> tuple[ActionSpec, ...]:
    """The full, ordered action catalog; its length equals the network's
    output dimension."""
    return _CATALOG


def apply(cert: Certificate, action: int, now: dt.datetime = REFERENCE_TIME) -> Certificate:
    """Apply one catalog action, returning a new certificate that encodes
    from its fields.

    ``now`` anchors the "set to the reference clock" validity actions; it
    defaults to the fixed reference time so stored traces replay exactly.
    """
    if not 0 <= action < CATALOG_SIZE:
        raise InvalidTrace(f"action id {action} outside 0..{CATALOG_SIZE - 1}")
    return _OPS[action](cert, now)


def replay(seed: Certificate, trace, now: dt.datetime = REFERENCE_TIME) -> Certificate:
    """Re-apply a stored trace (at most 10 action ids) to its seed,
    reproducing the mutant exactly."""
    cert = seed
    for action in validate_trace(trace):
        cert = apply(cert, action, now=now)
    return cert

