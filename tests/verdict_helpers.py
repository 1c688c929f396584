"""Verifier test helpers: one profile's verdict on its own, the six
shipped profiles bound to a store, as tests written against single
profiles and the default panel need, and a verbatim copy of the earlier
facts pass and judgement as the oracle of the tagged failure list."""

import datetime as dt
from typing import NamedTuple

from diffcert import asn1, x509oids as oid
from diffcert.certs import Certificate, MalformedDer, UnsupportedStructure, mock_sign, parse_der
from diffcert.verdicts import (
    _SEVERITY_RANK,
    ALGORITHM_ERROR,
    BASIC_CONSTRAINTS_ERROR,
    CHAIN_ERROR,
    KEY_USAGE_ERROR,
    OTHER_ERROR,
    OTHER_EXTENSION_ERROR,
    SELF_SIGN,
    SIGNATURE_ERROR,
    SUBJECT_ISSUER_ERROR,
    SUPPORTED_SIG_ALGS,
    UNKNOWN_CRITICAL_EXTENSION,
    UNKNOWN_ISSUER,
    VALID,
    VALIDATOR_KNOWN_EXTENSIONS,
    VALIDITY_PERIOD_ERROR,
    VERSION_ERROR,
    FlawProfile,
    SimulatedBackend,
    TrustStore,
    bind_backends,
    default_backend_specs,
    derive_facts,
    judge,
    validity_window,
)


def simulate_verify(profile: FlawProfile, cert, trust: TrustStore, now: dt.datetime) -> int:
    """Verdict of one simulated backend; total, never raises on cert content."""
    data = cert if isinstance(cert, Certificate) else bytes(cert)
    return judge(profile, derive_facts(data, trust, profile.lenient_parse), validity_window(profile, now))


def default_backends(trust: TrustStore) -> list[SimulatedBackend]:
    return bind_backends(default_backend_specs(), trust)


# The facts pass and the judgement as they stood before the facts became
# the tagged failure list: twelve per-check fields, and one branch per
# switch in `judge`.  Verbatim but for the `Reference`/`reference_` names.

_EXT_ERROR_CODES = {
    oid.BASIC_CONSTRAINTS: BASIC_CONSTRAINTS_ERROR,
    oid.KEY_USAGE: KEY_USAGE_ERROR,
}


class ReferenceFacts(NamedTuple):
    """What verification derives from one input and a trust store,
    independently of any profile: all that `judge` reads.

    ``strict_ok`` says whether a strict parse succeeds too.  The validity
    bounds are whole seconds; ``long_serial`` means more than 20 octets.
    Extension codes keep extension order; ``-10`` marks an unknown
    critical extension, every other code a malformed known one.
    ``trust_code`` is the trust failure once the chain is accepted:
    self-sign, unknown issuer or signature mismatch.
    """

    strict_ok: bool = False
    version: int = 3
    v3_extensions: bool = False  # the certificate has an extensions field
    weak_sig_alg: bool = False
    not_before: int = 0
    not_after: int = 0
    nonpositive_serial: bool = False
    long_serial: bool = False
    name_failures: int = 0
    ext_codes: tuple[int, ...] = ()
    legacy_issuer: bool = False  # issued by a v1/v2 intermediate anchor
    trust_code: int | None = None


def reference_derive_facts(data: Certificate | bytes, trust: TrustStore, lenient: bool) -> ReferenceFacts | None:
    """The one pass over an input that every simulated profile shares.

    A certificate is judged from its fields: they are what a parse of its
    encoding gives back.  Bytes are parsed; None means even a lenient
    parse fails.  Without a ``lenient`` profile to read them, the facts of
    an input that is not strict DER are the default ones.
    """
    if isinstance(data, Certificate):
        cert = data
    else:
        try:
            cert = parse_der(data, lenient=True)
        except (MalformedDer, UnsupportedStructure):
            return None
    if not (cert.strict_der or lenient):
        return ReferenceFacts()

    name_failures = cert.issuer.odd_countries + cert.subject.odd_countries
    if not cert.subject.rdns and cert.extension(oid.SUBJECT_ALT_NAME) is None:
        name_failures += 1

    ext_codes = []
    for ext in cert.extensions:
        if ext.oid in VALIDATOR_KNOWN_EXTENSIONS:
            if ext.malformed:
                ext_codes.append(_EXT_ERROR_CODES.get(ext.oid, OTHER_EXTENSION_ERROR))
        elif ext.critical:
            ext_codes.append(UNKNOWN_CRITICAL_EXTENSION)

    legacy_issuer, trust_code = False, None
    subject, issuer = cert.subject.der, cert.issuer.der
    if trust.lookup(subject) is None:  # an anchor itself is trusted by fiat
        anchor = trust.lookup(issuer)
        if anchor is None:
            trust_code = SELF_SIGN if subject == issuer else UNKNOWN_ISSUER
        else:
            legacy_issuer = anchor.version < 3 and not anchor.is_root
            tbs = cert.tbs
            if cert.signature_value != b"\x00" + mock_sign(tbs, anchor.tag):
                trust_code = SIGNATURE_ERROR
    return ReferenceFacts(
        cert.strict_der, cert.version, bool(cert.extensions), cert.signature_algorithm.oid not in SUPPORTED_SIG_ALGS,
        cert.not_before.seconds, cert.not_after.seconds, cert.serial <= 0, len(asn1.encode_int_content(cert.serial)) > 20,
        name_failures, tuple(ext_codes), legacy_issuer, trust_code,
    )


def reference_validity_window(profile: FlawProfile, now: dt.datetime) -> tuple[int, int]:
    """The latest notBefore and the earliest notAfter, in whole seconds,
    that ``profile``'s clock accepts at ``now``: offset by its local-time
    setting, with its linger as slack.  Whole seconds, because a bound
    plus the linger may lie past year 9999."""
    local_now = now + dt.timedelta(seconds=profile.local_time_offset_seconds)
    linger = profile.time_linger_seconds
    return int((local_now + dt.timedelta(seconds=linger)).timestamp()), int(local_now.timestamp()) - linger


def reference_judge(profile: FlawProfile, facts: ReferenceFacts | None, window: tuple[int, int]) -> int:
    """One profile's verdict within its `validity_window`: waive what its
    switches accept, then report the first failure met or the most severe one."""
    if facts is None or not (facts.strict_ok or profile.lenient_parse):
        return profile.parse_error_code
    # Stages in check order: names, extension values read as parse errors,
    # version, algorithm, validity, serial, trust, extensions.
    failures = [SUBJECT_ISSUER_ERROR] * facts.name_failures
    ext_codes = facts.ext_codes
    if profile.ext_value_error_as_parse:
        unknown = [c for c in ext_codes if c == UNKNOWN_CRITICAL_EXTENSION]
        failures += [profile.parse_error_code] * (len(ext_codes) - len(unknown))
        ext_codes = unknown
    if profile.ignore_unknown_critical:
        ext_codes = [c for c in ext_codes if c != UNKNOWN_CRITICAL_EXTENSION]

    version = facts.version
    if version not in (1, 2, 3):
        if not (version == 4 and profile.accept_v4):
            failures.append(VERSION_ERROR)
    elif version in (1, 2) and facts.v3_extensions:
        if not (profile.accept_v1_with_v3_ext if version == 1 else profile.accept_v2_with_v3_ext):
            failures.append(VERSION_ERROR)
    if facts.weak_sig_alg and not profile.accept_weak_sig_alg:
        failures.append(ALGORITHM_ERROR)

    latest_start, earliest_end = window
    if facts.not_before > latest_start or facts.not_after < earliest_end:
        failures.append(VALIDITY_PERIOD_ERROR)

    if facts.nonpositive_serial and not profile.accept_nonpositive_serial:
        failures.append(OTHER_ERROR)
    elif facts.long_serial and not profile.accept_long_serial:
        failures.append(OTHER_ERROR)

    # A rejected legacy chain stops the trust check before the signature.
    if facts.legacy_issuer and not profile.accept_v1v2_intermediate:
        failures.append(CHAIN_ERROR)
    elif facts.trust_code is not None:
        failures.append(facts.trust_code)
    failures += ext_codes

    if not failures:
        return VALID
    if profile.first_error_only:
        return failures[0]
    return min(failures, key=_SEVERITY_RANK.__getitem__)
