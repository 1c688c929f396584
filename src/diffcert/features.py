"""Map a certificate to the 101-integer state vector the Q-network consumes.

Layout: slot 0 version; 1 issuer-country label; 2 subject-country label;
3 cmp(not_before, now); 4 cmp(not_after, now); 5 key length in kilobits;
6 signature-algorithm label; 7 serial-number class; 8..100 a block of 31
tracked extension types x (exists, critical, value-class).
"""

from __future__ import annotations

import datetime as dt
import functools

from . import asn1, x509oids as oid
from .certs import Certificate, Extension

FEATURE_LENGTH = 101
EXTENSION_BLOCK_START = 8

# Serial-number classes (slot 7)
SERIAL_POSITIVE = 0
SERIAL_ZERO = 1
SERIAL_NEGATIVE = 2
SERIAL_OVERLONG = 3

# Order is load-bearing: it fixes each type's three slots.  The first
# eleven entries are the mutation targets.  Types with a classifier in
# `_VALUE_CLASSIFIERS` get a value class; the rest only existence and
# criticality.  Untracked types are ignored outright.
TRACKED_EXTENSIONS: tuple[str, ...] = (
    oid.BASIC_CONSTRAINTS,
    oid.KEY_USAGE,
    oid.EXT_KEY_USAGE,
    oid.SUBJECT_ALT_NAME,
    oid.AUTHORITY_KEY_ID,
    oid.SUBJECT_KEY_ID,
    oid.CRL_DISTRIBUTION_POINTS,
    oid.CERTIFICATE_POLICIES,
    oid.AUTHORITY_INFO_ACCESS,
    oid.NAME_CONSTRAINTS,
    oid.SCT_LIST,
    oid.ISSUER_ALT_NAME,
    oid.POLICY_CONSTRAINTS,
    oid.POLICY_MAPPINGS,
    oid.SUBJECT_DIRECTORY_ATTRS,
    oid.INHIBIT_ANY_POLICY,
    oid.FRESHEST_CRL,
    oid.SUBJECT_INFO_ACCESS,
    oid.PRIVATE_KEY_USAGE_PERIOD,
    oid.NETSCAPE_CERT_TYPE,
    oid.NETSCAPE_COMMENT,
    oid.MS_APPLICATION_POLICIES,
    oid.MS_CERTIFICATE_TEMPLATE,
    oid.ENTRUST_VERSION_INFO,
    oid.OCSP_NO_CHECK,
    oid.TLS_FEATURE,
    oid.CT_PRECERT_POISON,
    oid.LOGOTYPE,
    oid.QC_STATEMENTS,
    oid.BIOMETRIC_INFO,
    oid.SMIME_CAPABILITIES,
)

assert EXTENSION_BLOCK_START + 3 * len(TRACKED_EXTENSIONS) == FEATURE_LENGTH

_TRACKED_INDEX = {ext_oid: i for i, ext_oid in enumerate(TRACKED_EXTENSIONS)}

DEFAULT_COUNTRIES = (
    "US", "CN", "DE", "FR", "GB", "AU", "JP", "BR", "IN", "RU",
    "NL", "SE", "CH", "ES", "IT", "CA", "KR", "SG", "ZA", "MX",
)

DEFAULT_SIG_ALGS = (
    oid.SHA256_RSA,
    oid.SHA1_RSA,
    oid.SHA384_RSA,
    oid.SHA512_RSA,
    oid.ECDSA_SHA256,
    oid.ECDSA_SHA384,
    oid.MD5_RSA,
    oid.DSA_SHA256,
)


# Label maps for slots 1, 2 and 6: fixed like the slot layout, so a
# checkpoint's featurization is the code's.  Label 0 is absent/unknown.
COUNTRY_LABELS = {code: i + 1 for i, code in enumerate(DEFAULT_COUNTRIES)}
SIG_ALG_LABELS = {alg: i + 1 for i, alg in enumerate(DEFAULT_SIG_ALGS)}

# The maps as checkpoints record them (`qnet.save`, `qnet.load`).
LABELS_TEXT = "".join(
    ["# diffcert label registry v1\n"]
    + [f"country {code} {label}\n" for code, label in COUNTRY_LABELS.items()]
    + [f"sigalg {alg} {label}\n" for alg, label in SIG_ALG_LABELS.items()]
)


def _country_label(code: str | None) -> int:
    return 0 if code is None else COUNTRY_LABELS.get(code.upper(), 0)


def _sign(difference: int) -> int:
    return (difference > 0) - (difference < 0)


def _serial_class(serial: int, serial_raw: bytes) -> int:
    if serial == 0:
        return SERIAL_ZERO
    if len(serial_raw) > 20:
        return SERIAL_OVERLONG
    if serial < 0:
        return SERIAL_NEGATIVE
    return SERIAL_POSITIVE


# ---------------------------------------------------------------------------
# Per-type value classifiers.  Class 3 always means "malformed".

VALUE_WELL_FORMED_DEFAULT = 0
MALFORMED = 3


def _classify_basic_constraints(value: bytes) -> int:
    # 1 = CA TRUE, 2 = CA false (explicit or defaulted), 3 = malformed
    try:
        start, stop, nxt = asn1.expect_tlv(value, 0, len(value), asn1.SEQUENCE, "BasicConstraints")
        if nxt != len(value):
            return MALFORMED
        if start == stop:
            return 2
        tag, bstart, bstop, pos = asn1.read_tlv(value, start, stop)
        if tag != asn1.BOOLEAN:
            return 2  # pathLen without cA; cA defaults to FALSE
        return 1 if value[bstart:bstop] not in (b"\x00",) else 2
    except asn1.MalformedDer:
        return MALFORMED


def _classify_key_usage(value: bytes) -> int:
    # 1 = keyCertSign present, 2 = other usable bits, 3 = malformed/empty
    try:
        start, stop, nxt = asn1.expect_tlv(value, 0, len(value), asn1.BIT_STRING, "KeyUsage")
        if nxt != len(value):
            return MALFORMED
        content = value[start:stop]
        if len(content) < 2 or content[0] > 7:
            return MALFORMED
        bits = content[1:]
        if not any(bits):
            return MALFORMED
        key_cert_sign = bool(bits[0] & 0x04)  # bit 5 of the first octet
        return 1 if key_cert_sign else 2
    except asn1.MalformedDer:
        return MALFORMED


def _classify_ext_key_usage(value: bytes) -> int:
    # 1 = serverAuth present, 2 = other purposes, 3 = malformed/empty
    try:
        start, stop, nxt = asn1.expect_tlv(value, 0, len(value), asn1.SEQUENCE, "ExtKeyUsage")
        if nxt != len(value):
            return MALFORMED
        purposes = []
        pos = start
        while pos < stop:
            ostart, ostop, pos = asn1.expect_tlv(value, pos, stop, asn1.OBJECT_IDENTIFIER, "purpose")
            purposes.append(asn1.decode_oid_content(value[ostart:ostop], ostart))
        if not purposes:
            return MALFORMED
        return 1 if oid.EKU_SERVER_AUTH in purposes else 2
    except asn1.MalformedDer:
        return MALFORMED


def _classify_subject_alt_name(value: bytes) -> int:
    # 1 = contains a dNSName, 2 = other general names, 3 = malformed/empty
    try:
        start, stop, nxt = asn1.expect_tlv(value, 0, len(value), asn1.SEQUENCE, "SubjectAltName")
        if nxt != len(value):
            return MALFORMED
        tags = []
        pos = start
        while pos < stop:
            tag, _, _, pos = asn1.read_tlv(value, pos, stop)
            if tag & 0xC0 != 0x80:
                return MALFORMED
            tags.append(tag & 0x1F)
        if not tags:
            return MALFORMED
        return 1 if 2 in tags else 2
    except asn1.MalformedDer:
        return MALFORMED


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


def _kept(fn):
    """Keep ``fn(ext)`` in the frozen extension's ``__dict__``, as
    `certs._cached` keeps a part's DER: an extension a mutant shares with
    its parent is read once, however many steps and panels reuse it."""
    name = fn.__name__

    @functools.wraps(fn)
    def read(ext: Extension):
        found = ext.__dict__.get(name)  # never None once computed
        if found is None:
            found = ext.__dict__[name] = fn(ext)
        return found

    return read


@_kept
def extension_value_class(ext: Extension) -> int:
    """`classify_extension_value` of one extension: its feature slot."""
    return classify_extension_value(ext.oid, ext.value)


@_kept
def extension_malformed(ext: Extension) -> bool:
    """Whether simulated validators should treat the value as unparseable.

    Classified types use their classifier's malformed class; every other
    tracked standard type gets a generic nested-DER well-formedness check.
    """
    if ext.oid in _VALUE_CLASSIFIERS:
        return extension_value_class(ext) == MALFORMED
    return not asn1.der_well_formed(ext.value)


def extract(cert: Certificate, now: dt.datetime) -> tuple[int, ...]:
    """Pure featurization; every certificate yields exactly 101 integers."""
    vec = [0] * FEATURE_LENGTH
    vec[0] = cert.version
    vec[1] = _country_label(cert.issuer.country())
    vec[2] = _country_label(cert.subject.country())
    now_seconds = int(now.timestamp())
    vec[3] = _sign(cert.not_before.seconds - now_seconds)
    vec[4] = _sign(cert.not_after.seconds - now_seconds)
    vec[5] = cert.public_key_info.bit_length // 1024
    vec[6] = SIG_ALG_LABELS.get(cert.signature_algorithm.oid, 0)
    vec[7] = _serial_class(cert.serial, cert.serial_raw)
    for ext in cert.extensions:
        idx = _TRACKED_INDEX.get(ext.oid)
        if idx is None:
            continue  # untracked: ignored outright
        base = EXTENSION_BLOCK_START + 3 * idx
        vec[base] = 1
        vec[base + 1] = 1 if ext.critical else 0
        vec[base + 2] = extension_value_class(ext)
    return tuple(vec)
