"""Map a certificate to the 101-integer state vector the Q-network consumes.

Layout: slot 0 version; 1 issuer-country label; 2 subject-country label;
3 cmp(not_before, now); 4 cmp(not_after, now); 5 key length in kilobits;
6 signature-algorithm label; 7 serial-number class; 8..100 a block of 31
tracked extension types x (exists, critical, value-class).
"""

from __future__ import annotations

import datetime as dt
import functools
from dataclasses import dataclass, field

from . import asn1, x509oids as oid
from .certs import Certificate, Extension

FEATURE_LENGTH = 101
EXTENSION_BLOCK_START = 8

# Serial-number classes (slot 7)
SERIAL_POSITIVE = 0
SERIAL_ZERO = 1
SERIAL_NEGATIVE = 2
SERIAL_OVERLONG = 3

# Extraction modes: mode 1 classifies the value, mode 2 only tracks
# existence and criticality, untracked types are ignored outright.
MODE_VALUE = 1
MODE_EXISTS = 2

# Order is load-bearing: it fixes each type's three slots.  The first
# eleven entries are the mutation targets.
TRACKED_EXTENSIONS: tuple[tuple[str, int], ...] = (
    (oid.BASIC_CONSTRAINTS, MODE_VALUE),
    (oid.KEY_USAGE, MODE_VALUE),
    (oid.EXT_KEY_USAGE, MODE_VALUE),
    (oid.SUBJECT_ALT_NAME, MODE_VALUE),
    (oid.AUTHORITY_KEY_ID, MODE_EXISTS),
    (oid.SUBJECT_KEY_ID, MODE_EXISTS),
    (oid.CRL_DISTRIBUTION_POINTS, MODE_EXISTS),
    (oid.CERTIFICATE_POLICIES, MODE_EXISTS),
    (oid.AUTHORITY_INFO_ACCESS, MODE_EXISTS),
    (oid.NAME_CONSTRAINTS, MODE_EXISTS),
    (oid.SCT_LIST, MODE_EXISTS),
    (oid.ISSUER_ALT_NAME, MODE_EXISTS),
    (oid.POLICY_CONSTRAINTS, MODE_EXISTS),
    (oid.POLICY_MAPPINGS, MODE_EXISTS),
    (oid.SUBJECT_DIRECTORY_ATTRS, MODE_EXISTS),
    (oid.INHIBIT_ANY_POLICY, MODE_EXISTS),
    (oid.FRESHEST_CRL, MODE_EXISTS),
    (oid.SUBJECT_INFO_ACCESS, MODE_EXISTS),
    (oid.PRIVATE_KEY_USAGE_PERIOD, MODE_EXISTS),
    (oid.NETSCAPE_CERT_TYPE, MODE_EXISTS),
    (oid.NETSCAPE_COMMENT, MODE_EXISTS),
    (oid.MS_APPLICATION_POLICIES, MODE_EXISTS),
    (oid.MS_CERTIFICATE_TEMPLATE, MODE_EXISTS),
    (oid.ENTRUST_VERSION_INFO, MODE_EXISTS),
    (oid.OCSP_NO_CHECK, MODE_EXISTS),
    (oid.TLS_FEATURE, MODE_EXISTS),
    (oid.CT_PRECERT_POISON, MODE_EXISTS),
    (oid.LOGOTYPE, MODE_EXISTS),
    (oid.QC_STATEMENTS, MODE_EXISTS),
    (oid.BIOMETRIC_INFO, MODE_EXISTS),
    (oid.SMIME_CAPABILITIES, MODE_EXISTS),
)

assert EXTENSION_BLOCK_START + 3 * len(TRACKED_EXTENSIONS) == FEATURE_LENGTH

_TRACKED_INDEX = {ext_oid: i for i, (ext_oid, _) in enumerate(TRACKED_EXTENSIONS)}
_TRACKED_MODE = dict(TRACKED_EXTENSIONS)

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


@dataclass(frozen=True)
class LabelRegistry:
    """Stable value-to-label maps, frozen before training and persisted with
    the model.  Label 0 is reserved for absent/unknown values."""

    countries: dict[str, int] = field(default_factory=dict)
    sig_algs: dict[str, int] = field(default_factory=dict)

    def country_label(self, code: str | None) -> int:
        if code is None:
            return 0
        return self.countries.get(code.upper(), 0)

    def sig_alg_label(self, alg_oid: str) -> int:
        return self.sig_algs.get(alg_oid, 0)

    def to_text(self) -> str:
        lines = ["# diffcert label registry v1"]
        for code, label in sorted(self.countries.items(), key=lambda kv: kv[1]):
            lines.append(f"country {code} {label}")
        for alg, label in sorted(self.sig_algs.items(), key=lambda kv: kv[1]):
            lines.append(f"sigalg {alg} {label}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LabelRegistry":
        countries: dict[str, int] = {}
        sig_algs: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"registry line {lineno}: expected 'kind key label'")
            kind, key, label = parts
            if kind == "country":
                countries[key] = int(label)
            elif kind == "sigalg":
                sig_algs[key] = int(label)
            else:
                raise ValueError(f"registry line {lineno}: unknown kind {kind!r}")
        return cls(countries, sig_algs)


def default_registry() -> LabelRegistry:
    return LabelRegistry(
        countries={code: i + 1 for i, code in enumerate(DEFAULT_COUNTRIES)},
        sig_algs={alg: i + 1 for i, alg in enumerate(DEFAULT_SIG_ALGS)},
    )


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
# Per-type value classifiers (mode 1).  Class 3 always means "malformed".

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


def classify_extension_value(ext_oid: str, critical: bool, value: bytes) -> int:
    """Value-class for a tracked extension; mode-2 types always map to 0."""
    mode = _TRACKED_MODE.get(ext_oid)
    if mode == MODE_VALUE:
        return _VALUE_CLASSIFIERS[ext_oid](value)
    return VALUE_WELL_FORMED_DEFAULT


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
    return classify_extension_value(ext.oid, ext.critical, ext.value)


@_kept
def extension_malformed(ext: Extension) -> bool:
    """Whether simulated validators should treat the value as unparseable.

    Mode-1 types use their classifier's malformed class; every other
    tracked standard type gets a generic nested-DER well-formedness check.
    """
    if ext.oid in _VALUE_CLASSIFIERS:
        return extension_value_class(ext) == MALFORMED
    return not asn1.der_well_formed(ext.value)


def extract(cert: Certificate, now: dt.datetime, registry: LabelRegistry) -> tuple[int, ...]:
    """Pure featurization; every certificate yields exactly 101 integers."""
    vec = [0] * FEATURE_LENGTH
    vec[0] = cert.version
    vec[1] = registry.country_label(cert.issuer.country())
    vec[2] = registry.country_label(cert.subject.country())
    now_seconds = int(now.timestamp())
    vec[3] = _sign(cert.not_before.seconds - now_seconds)
    vec[4] = _sign(cert.not_after.seconds - now_seconds)
    vec[5] = cert.public_key_info.bit_length // 1024
    vec[6] = registry.sig_alg_label(cert.signature_algorithm.oid)
    vec[7] = _serial_class(cert.serial, cert.serial_raw)
    for ext in cert.extensions:
        idx = _TRACKED_INDEX.get(ext.oid)
        if idx is None:
            continue  # mode 3: ignored outright
        base = EXTENSION_BLOCK_START + 3 * idx
        vec[base] = 1
        vec[base + 1] = 1 if ext.critical else 0
        vec[base + 2] = extension_value_class(ext)
    return tuple(vec)
