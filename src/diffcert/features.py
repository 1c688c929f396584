"""Map a certificate to the 101-integer state vector the Q-network consumes.

Layout: slot 0 version; 1 issuer-country label; 2 subject-country label;
3 cmp(not_before, REFERENCE_TIME); 4 cmp(not_after, REFERENCE_TIME);
5 key length in kilobits; 6 signature-algorithm label; 7 serial-number
class; 8..100 a block of 31 tracked extension types x (exists, critical,
value-class).  Every campaign runs at `certs.REFERENCE_TIME`, so the
vector is a function of the certificate alone.
"""

from __future__ import annotations

from . import x509oids as oid
from .actions import EXTENSION_TARGETS
from .certs import REFERENCE_TIME, SERIAL_END, SERIAL_MIN, Certificate

FEATURE_LENGTH = 101
EXTENSION_BLOCK_START = 8

# Serial-number classes (slot 7)
SERIAL_POSITIVE = 0
SERIAL_ZERO = 1
SERIAL_NEGATIVE = 2
SERIAL_OVERLONG = 3

# Order is load-bearing: it fixes each type's three slots.  The mutation
# targets come first.  Types with a classifier in
# `certs._VALUE_CLASSIFIERS` get a value class; the rest only existence and
# criticality.  Untracked types are ignored outright.
TRACKED_EXTENSIONS: tuple[str, ...] = EXTENSION_TARGETS + (
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

_REFERENCE_SECONDS = int(REFERENCE_TIME.timestamp())

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


def _serial_class(serial: int) -> int:
    if serial == 0:
        return SERIAL_ZERO
    if not SERIAL_MIN <= serial < SERIAL_END:
        return SERIAL_OVERLONG
    if serial < 0:
        return SERIAL_NEGATIVE
    return SERIAL_POSITIVE


def extract(cert: Certificate) -> tuple[int, ...]:
    """Pure featurization; every certificate yields exactly 101 integers."""
    vec = [0] * FEATURE_LENGTH
    vec[0] = cert.version
    vec[1] = _country_label(cert.issuer.country)
    vec[2] = _country_label(cert.subject.country)
    vec[3] = _sign(cert.not_before.seconds - _REFERENCE_SECONDS)
    vec[4] = _sign(cert.not_after.seconds - _REFERENCE_SECONDS)
    vec[5] = cert.public_key_info.bit_length // 1024
    vec[6] = SIG_ALG_LABELS.get(cert.signature_algorithm.oid, 0)
    vec[7] = _serial_class(cert.serial)
    for ext in cert.extensions:
        idx = _TRACKED_INDEX.get(ext.oid)
        if idx is None:
            continue  # untracked: ignored outright
        base = EXTENSION_BLOCK_START + 3 * idx
        vec[base] = 1
        vec[base + 1] = 1 if ext.critical else 0
        vec[base + 2] = ext.value_class
    return tuple(vec)
