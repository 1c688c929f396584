"""Differential testing: run a certificate through a panel of verifier
backends, normalize every outcome into a 16-code taxonomy, detect
discrepancies and compute rewards.

Two backend types exist.  Simulated backends are parameterized reference
validators whose acceptance switches each re-create one known class of
real-world validation flaw; the six shipped profiles are behavioral
caricatures of popular TLS libraries, not emulations.  External backends
shell out to an installed verification utility and map its exit status
and output through an ordered pattern table.
"""

from __future__ import annotations

import base64
import concurrent.futures
import datetime as dt
import json
import logging
import os
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, replace

from .certs import Certificate, MalformedDer, UnsupportedStructure, encode_der, mock_sign, parse_der
from .features import extension_malformed
from . import x509oids as oid

log = logging.getLogger(__name__)

VALID = 1
UNKNOWN_ISSUER = -1
VALIDITY_PERIOD_ERROR = -2
PARSING_ERROR = -3
VERSION_ERROR = -4
ALGORITHM_ERROR = -5
SIGNATURE_ERROR = -6
SUBJECT_ISSUER_ERROR = -7
KEY_USAGE_ERROR = -8
BASIC_CONSTRAINTS_ERROR = -9
UNKNOWN_CRITICAL_EXTENSION = -10
CHAIN_ERROR = -11
SELF_SIGN = -12
CONNECTION_ERROR = -13
OTHER_EXTENSION_ERROR = -14
OTHER_ERROR = -15

VERDICT_NAMES: dict[int, str] = {
    VALID: "Valid",
    UNKNOWN_ISSUER: "Unknown issuer",
    VALIDITY_PERIOD_ERROR: "Validity period error",
    PARSING_ERROR: "Parsing error",
    VERSION_ERROR: "Version error",
    ALGORITHM_ERROR: "Algorithm error",
    SIGNATURE_ERROR: "Signature error",
    SUBJECT_ISSUER_ERROR: "Subject/Issuer error",
    KEY_USAGE_ERROR: "Key usage error",
    BASIC_CONSTRAINTS_ERROR: "Basic constraints error",
    UNKNOWN_CRITICAL_EXTENSION: "Unknown critical extension",
    CHAIN_ERROR: "Chain error",
    SELF_SIGN: "Self sign",
    CONNECTION_ERROR: "Connection error",
    OTHER_EXTENSION_ERROR: "Other extension error",
    OTHER_ERROR: "Other error",
}

ALL_CODES = tuple(VERDICT_NAMES)

# Most- to least-severe failure, used when a profile reports the worst
# defect instead of the first one it meets.  Parse-level problems beat
# structural ones, which beat trust/extension findings.
SEVERITY_ORDER: tuple[int, ...] = (
    PARSING_ERROR,
    SUBJECT_ISSUER_ERROR,
    VERSION_ERROR,
    ALGORITHM_ERROR,
    SIGNATURE_ERROR,
    VALIDITY_PERIOD_ERROR,
    OTHER_ERROR,
    SELF_SIGN,
    CHAIN_ERROR,
    UNKNOWN_ISSUER,
    KEY_USAGE_ERROR,
    BASIC_CONSTRAINTS_ERROR,
    UNKNOWN_CRITICAL_EXTENSION,
    OTHER_EXTENSION_ERROR,
)

_SEVERITY_RANK = {code: i for i, code in enumerate(SEVERITY_ORDER)}


class InsufficientBackends(RuntimeError):
    """Differential testing needs at least two available backends."""


class BackendUnavailable(RuntimeError):
    """An external verification utility is not installed or not runnable."""


@dataclass(frozen=True)
class VerdictVector:
    """One normalized code per backend, in configuration order."""

    codes: tuple[int, ...]
    backend_ids: tuple[str, ...]

    def __iter__(self):
        return iter(self.codes)

    def __len__(self):
        return len(self.codes)


def _codes(v) -> tuple[int, ...]:
    return tuple(v.codes) if isinstance(v, VerdictVector) else tuple(v)


def is_discrepancy(v) -> bool:
    """True when the panel both accepted and rejected the same certificate.

    A connection error (an external verifier that timed out or could not
    run) is neither an acceptance nor a rejection.
    """
    codes = _codes(v)
    return VALID in codes and any(c not in (VALID, CONNECTION_ERROR) for c in codes)


def reward_primary(v) -> int:
    """100 for a discrepancy, -1 otherwise."""
    return 100 if is_discrepancy(v) else -1


def verdict_categories(v) -> set[int]:
    """The distinct verdicts of a vector; a connection error is none."""
    return set(_codes(v)) - {CONNECTION_ERROR}


def reward_delta(v_before, v_after) -> int:
    """Growth in the number of distinct verdict categories."""
    return len(verdict_categories(v_after)) - len(verdict_categories(v_before))


# ---------------------------------------------------------------------------
# Trust model

@dataclass(frozen=True)
class TrustAnchor:
    """A trusted name: its mock signing tag plus the chain facts the
    verifier needs (certificate version, root-or-intermediate)."""

    name_der: bytes
    tag: str
    version: int = 3
    is_root: bool = True


class TrustStore:
    """Anchors keyed by DER-encoded name.

    A certificate whose *subject* matches an anchor is trusted directly
    (no signature check -- it is the anchor).  Otherwise its *issuer* must
    match an anchor, whose tag keys the mock-signature check.
    """

    def __init__(self, anchors: list[TrustAnchor] | None = None):
        self._by_name: dict[bytes, TrustAnchor] = {}
        for anchor in anchors or []:
            self.add(anchor)

    def add(self, anchor: TrustAnchor) -> None:
        self._by_name[anchor.name_der] = anchor

    def lookup(self, name_der: bytes) -> TrustAnchor | None:
        return self._by_name.get(name_der)

    def __len__(self):
        return len(self._by_name)

    def anchors(self) -> list[TrustAnchor]:
        return list(self._by_name.values())

    def to_json(self) -> str:
        entries = [
            {
                "name_b64": base64.b64encode(a.name_der).decode("ascii"),
                "tag": a.tag,
                "version": a.version,
                "is_root": a.is_root,
            }
            for a in self._by_name.values()
        ]
        return json.dumps({"format": "diffcert-trust", "version": 1, "anchors": entries}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrustStore":
        doc = json.loads(text)
        if doc.get("format") != "diffcert-trust" or doc.get("version") != 1:
            raise ValueError("not a diffcert trust store file")
        return cls(
            [
                TrustAnchor(
                    base64.b64decode(e["name_b64"]),
                    e["tag"],
                    int(e.get("version", 3)),
                    bool(e.get("is_root", True)),
                )
                for e in doc["anchors"]
            ]
        )


# ---------------------------------------------------------------------------
# Simulated verifiers

@dataclass(frozen=True)
class FlawProfile:
    """A strict reference validator plus acceptance switches.

    With everything at its default the profile is the strict validator;
    each switch relaxes exactly one check, so turning one on can only move
    verdicts toward acceptance.
    """

    time_linger_seconds: int = 0  # acceptance slack on both validity bounds
    local_time_offset_seconds: int = 0  # nonzero models checking against local time, not GMT
    accept_v1_with_v3_ext: bool = False
    accept_v2_with_v3_ext: bool = False
    accept_v4: bool = False
    accept_v1v2_intermediate: bool = False
    accept_nonpositive_serial: bool = False
    accept_long_serial: bool = False
    accept_weak_sig_alg: bool = False
    ignore_unknown_critical: bool = False
    lenient_parse: bool = False  # tolerates the explicitly-encoded FALSE criticality probe
    first_error_only: bool = False  # report the first failure met, not the most severe
    parse_error_code: int = PARSING_ERROR
    ext_value_error_as_parse: bool = False  # malformed extension values surface as parse errors


STRICT_PROFILE = FlawProfile()

# Behavioral caricatures of the six commonly tested TLS libraries, one
# switch per reproduced flaw class (plus taxonomy-reachability settings
# for which codes each library ever reports).
SHIPPED_PROFILES: dict[str, FlawProfile] = {
    "gnutls-like": FlawProfile(
        accept_v1_with_v3_ext=True,
        accept_v2_with_v3_ext=True,
        accept_v4=True,
        accept_v1v2_intermediate=True,
        accept_nonpositive_serial=True,
        accept_long_serial=True,
        accept_weak_sig_alg=True,
        ignore_unknown_critical=True,
        first_error_only=True,
        ext_value_error_as_parse=True,
    ),
    "matrixssl-like": FlawProfile(
        time_linger_seconds=24 * 60 * 60,
        local_time_offset_seconds=8 * 3600,
        accept_v2_with_v3_ext=True,
        accept_v1v2_intermediate=True,
        first_error_only=True,
        lenient_parse=True,
        parse_error_code=OTHER_ERROR,
    ),
    "mbedtls-like": FlawProfile(
        local_time_offset_seconds=8 * 3600,
        accept_weak_sig_alg=True,
        ignore_unknown_critical=True,
        ext_value_error_as_parse=True,
    ),
    "nss-like": FlawProfile(
        accept_v1_with_v3_ext=True,
        accept_v2_with_v3_ext=True,
        accept_v4=True,
        accept_v1v2_intermediate=True,
        accept_nonpositive_serial=True,
        accept_long_serial=True,
        accept_weak_sig_alg=True,
        first_error_only=True,
    ),
    "openssl-like": FlawProfile(
        accept_v1_with_v3_ext=True,
        accept_v2_with_v3_ext=True,
        accept_v4=True,
        accept_v1v2_intermediate=True,
        accept_nonpositive_serial=True,
        accept_long_serial=True,
        accept_weak_sig_alg=True,
        first_error_only=True,
    ),
    "wolfssl-like": FlawProfile(
        accept_v4=True,
        accept_weak_sig_alg=True,
        ignore_unknown_critical=True,
        first_error_only=True,
        lenient_parse=True,
        parse_error_code=OTHER_ERROR,
    ),
}

SUPPORTED_SIG_ALGS = frozenset(
    {oid.SHA256_RSA, oid.SHA384_RSA, oid.SHA512_RSA, oid.SHA1_RSA, oid.ECDSA_SHA256, oid.ECDSA_SHA384}
)

# Extension types the reference validator understands; a critical
# extension outside this set is "unknown critical".
VALIDATOR_KNOWN_EXTENSIONS = frozenset(
    {
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
        oid.ISSUER_ALT_NAME,
        oid.POLICY_CONSTRAINTS,
        oid.POLICY_MAPPINGS,
        oid.INHIBIT_ANY_POLICY,
        oid.FRESHEST_CRL,
        oid.SUBJECT_INFO_ACCESS,
    }
)

_EXT_ERROR_CODES = {
    oid.BASIC_CONSTRAINTS: BASIC_CONSTRAINTS_ERROR,
    oid.KEY_USAGE: KEY_USAGE_ERROR,
}


@dataclass(frozen=True)
class InputFacts:
    """What verification derives from one input and a trust store,
    independently of any profile.

    ``cert`` is the lenient parse, or None when it fails; ``strict_ok``
    says whether a strict parse would have succeeded too.  Extension
    codes keep extension order; ``-10`` marks an unknown critical
    extension, every other code a malformed known one.  ``trust_code`` is
    the trust failure once the chain is accepted: self-sign, unknown
    issuer or signature mismatch.
    """

    cert: Certificate | None
    strict_ok: bool = False
    name_failures: int = 0
    ext_codes: tuple[int, ...] = ()
    malformed_known: int = 0
    legacy_issuer: bool = False  # issued by a v1/v2 intermediate anchor
    trust_code: int | None = None


def derive_facts(data: Certificate | bytes, trust: TrustStore, lenient: bool) -> InputFacts:
    """The one pass over an input that every simulated profile shares.

    A certificate is judged from its fields: they are what a parse of its
    encoding gives back.  Bytes are parsed.  Without a ``lenient`` profile
    to read them, the facts of an input that is not strict DER stop at
    the parse.
    """
    if isinstance(data, Certificate):
        cert = data
    else:
        try:
            cert = parse_der(data, lenient=True)
        except (MalformedDer, UnsupportedStructure):
            return InputFacts(None)
    if not (cert.strict_der or lenient):
        return InputFacts(cert)

    name_failures = cert.issuer.odd_countries + cert.subject.odd_countries
    if not cert.subject.rdns and cert.extension(oid.SUBJECT_ALT_NAME) is None:
        name_failures += 1

    ext_codes = []
    malformed_known = 0
    for ext in cert.extensions:
        if ext.oid in VALIDATOR_KNOWN_EXTENSIONS:
            if extension_malformed(ext):
                ext_codes.append(_EXT_ERROR_CODES.get(ext.oid, OTHER_EXTENSION_ERROR))
                malformed_known += 1
        elif ext.critical:
            ext_codes.append(UNKNOWN_CRITICAL_EXTENSION)

    legacy_issuer, trust_code = False, None
    subject_der, issuer_der = cert.subject_der(), cert.issuer_der()
    if trust.lookup(subject_der) is None:  # an anchor itself is trusted by fiat
        anchor = trust.lookup(issuer_der)
        if anchor is None:
            trust_code = SELF_SIGN if subject_der == issuer_der else UNKNOWN_ISSUER
        else:
            legacy_issuer = anchor.version < 3 and not anchor.is_root
            tbs, _ = cert.encoding
            if cert.signature_value != b"\x00" + mock_sign(tbs, anchor.tag):
                trust_code = SIGNATURE_ERROR
    return InputFacts(cert, cert.strict_der, name_failures, tuple(ext_codes), malformed_known, legacy_issuer, trust_code)


def judge(profile: FlawProfile, facts: InputFacts, now: dt.datetime) -> int:
    """One profile's verdict: waive what its switches accept, then report
    the first failure met or the most severe one."""
    cert = facts.cert
    if cert is None or not (facts.strict_ok or profile.lenient_parse):
        return profile.parse_error_code
    # Stages in check order: names, extension values read as parse errors,
    # version, algorithm, validity, serial, trust, extensions.
    failures = [SUBJECT_ISSUER_ERROR] * facts.name_failures
    ext_codes = facts.ext_codes
    if profile.ext_value_error_as_parse:
        failures += [profile.parse_error_code] * facts.malformed_known
        ext_codes = [c for c in ext_codes if c == UNKNOWN_CRITICAL_EXTENSION]
    if profile.ignore_unknown_critical:
        ext_codes = [c for c in ext_codes if c != UNKNOWN_CRITICAL_EXTENSION]

    version = cert.version
    if version not in (1, 2, 3):
        if not (version == 4 and profile.accept_v4):
            failures.append(VERSION_ERROR)
    elif version in (1, 2) and cert.extensions:
        if not (profile.accept_v1_with_v3_ext if version == 1 else profile.accept_v2_with_v3_ext):
            failures.append(VERSION_ERROR)
    if not profile.accept_weak_sig_alg and cert.signature_algorithm.oid not in SUPPORTED_SIG_ALGS:
        failures.append(ALGORITHM_ERROR)

    # In whole seconds: a bound plus the linger may lie past year 9999.
    linger = profile.time_linger_seconds
    local_now = now + dt.timedelta(seconds=profile.local_time_offset_seconds)
    if cert.not_before.seconds > int((local_now + dt.timedelta(seconds=linger)).timestamp()):
        failures.append(VALIDITY_PERIOD_ERROR)
    elif int(local_now.timestamp()) > cert.not_after.seconds + linger:
        failures.append(VALIDITY_PERIOD_ERROR)

    if cert.serial <= 0 and not profile.accept_nonpositive_serial:
        failures.append(OTHER_ERROR)
    elif len(cert.serial_raw) > 20 and not profile.accept_long_serial:
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


def simulate_verify(profile: FlawProfile, cert, trust: TrustStore, now: dt.datetime) -> int:
    """Verdict of one simulated backend; total, never raises on cert content."""
    data = cert if isinstance(cert, Certificate) else bytes(cert)
    return judge(profile, derive_facts(data, trust, profile.lenient_parse), now)


# ---------------------------------------------------------------------------
# External verifier adapters

@dataclass(frozen=True)
class PatternRule:
    """One entry of an ordered output-matching table."""

    code: int
    match: str = ""  # substring, or regex when is_regex
    is_regex: bool = False
    exit_status: int | None = None

    def matches(self, status: int, output: str) -> bool:
        if self.exit_status is not None and status != self.exit_status:
            return False
        if not self.match:
            return True
        if self.is_regex:
            return re.search(self.match, output) is not None
        return self.match in output


@dataclass(frozen=True)
class ExternalBackend:
    """A verification utility run on a certificate file.

    ``command`` entries may contain ``{cert}`` and ``{trust}``
    placeholders; ``{trust}`` becomes ``trust_path``.  The pattern table
    must end with a catch-all rule mapping to "Other error".
    """

    id: str
    command: tuple[str, ...]
    patterns: tuple[PatternRule, ...]
    trust_path: str = ""
    timeout: float = 10.0

    def __post_init__(self):
        if not self.command:
            raise ValueError("external backend needs a command")
        if not self.patterns or self.patterns[-1].match or self.patterns[-1].exit_status is not None:
            raise ValueError("pattern table must end with a catch-all rule")
        if self.patterns[-1].code != OTHER_ERROR:
            raise ValueError("the catch-all rule must map to Other error (-15)")


def external_verify(backend: ExternalBackend, cert_bytes: bytes) -> int:
    """Run an external utility on a certificate file and normalize its outcome."""
    with tempfile.NamedTemporaryFile(suffix=".der", delete=False) as handle:
        handle.write(cert_bytes)
        cert_path = handle.name
    try:
        argv = [arg.format(cert=cert_path, trust=backend.trust_path) for arg in backend.command]
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                errors="replace",  # verifiers may emit non-UTF-8 diagnostics
                timeout=backend.timeout,
            )
        except FileNotFoundError as exc:
            raise BackendUnavailable(f"{backend.id}: {argv[0]} not found") from exc
        except subprocess.TimeoutExpired:
            log.warning("backend %s timed out after %.1fs; reporting connection error", backend.id, backend.timeout)
            return CONNECTION_ERROR
        combined = proc.stdout + proc.stderr
        for rule in backend.patterns:
            if rule.matches(proc.returncode, combined):
                return rule.code
        return OTHER_ERROR  # unreachable given the catch-all invariant
    finally:
        os.unlink(cert_path)


# ---------------------------------------------------------------------------
# Simulated backends and the panel runner

@dataclass(frozen=True)
class SimulatedBackend:
    """A flaw profile judging inputs against a trust store; ``trust`` is
    None until `bind_backends` supplies the campaign's store."""

    id: str
    profile: FlawProfile
    trust: TrustStore | None = None

    def verify_prepared(self, facts: InputFacts, now: dt.datetime) -> int:
        return judge(self.profile, facts, now)


def bind_backends(backends, trust: TrustStore) -> list:
    """Give each simulated backend the trust store, dropping externals
    whose utility is not on PATH."""
    bound = []
    for backend in backends:
        if isinstance(backend, SimulatedBackend):
            bound.append(replace(backend, trust=trust))
        elif shutil.which(backend.command[0]) is not None:
            bound.append(backend)
        else:
            log.warning("backend %s unavailable (%s not on PATH); skipping", backend.id, backend.command[0])
    return bound


def default_backends(trust: TrustStore) -> list[SimulatedBackend]:
    return bind_backends(default_backend_specs(), trust)


def verify_all(cert, backends, now: dt.datetime) -> VerdictVector:
    """One verdict per backend, in configuration order.

    Simulated backends judge a `Certificate` from its fields and parse
    bytes; external backends are given the encoding and run concurrently.
    The result order never depends on completion order.
    """
    if len(backends) < 2:
        raise InsufficientBackends(f"need at least 2 backends, have {len(backends)}")
    data = cert if isinstance(cert, Certificate) else bytes(cert)

    lenient = any(b.profile.lenient_parse for b in backends if not isinstance(b, ExternalBackend))
    codes: list[int | None] = [None] * len(backends)
    facts_by_store: dict[TrustStore, InputFacts] = {}
    externals = []
    for i, backend in enumerate(backends):
        if isinstance(backend, ExternalBackend):
            externals.append(i)
            continue
        facts = facts_by_store.get(backend.trust)
        if facts is None:
            facts = facts_by_store[backend.trust] = derive_facts(data, backend.trust, lenient)
        codes[i] = backend.verify_prepared(facts, now)
    if externals:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(8, len(externals))) as pool:
            der = encode_der(data) if isinstance(data, Certificate) else data
            for i, code in zip(externals, pool.map(lambda i: external_verify(backends[i], der), externals)):
                codes[i] = code
    return VerdictVector(tuple(codes), tuple(b.id for b in backends))


# ---------------------------------------------------------------------------
# Backend configuration files

def load_backend_specs(path) -> list:
    """Read a backend configuration file (JSON, versioned) into unbound
    `SimulatedBackend`s and `ExternalBackend`s."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("format") != "diffcert-backends" or doc.get("version") != 1:
        raise ValueError("not a diffcert backend configuration file")
    backends = []
    for entry in doc["backends"]:
        if entry["kind"] == "simulated":
            profile = entry.get("profile", {})
            if isinstance(profile, str):
                if profile not in SHIPPED_PROFILES:
                    raise ValueError(f"\"profile\": unknown shipped profile {profile!r} (known: {', '.join(SHIPPED_PROFILES)})")
                profile = SHIPPED_PROFILES[profile]
            else:
                profile = replace(STRICT_PROFILE, **profile)
            backends.append(SimulatedBackend(entry["id"], profile))
        elif entry["kind"] == "external":
            patterns = tuple(
                PatternRule(rule["code"], rule.get("match", ""), bool(rule.get("regex", False)), rule.get("exit_status"))
                for rule in entry["patterns"]
            )
            timeout = float(entry.get("timeout", 10.0))
            backends.append(ExternalBackend(entry["id"], tuple(entry["command"]), patterns, entry.get("trust", ""), timeout))
        else:
            raise ValueError(f"unknown backend kind {entry['kind']!r}")
    return backends


def default_backend_specs() -> list[SimulatedBackend]:
    return [SimulatedBackend(name, profile) for name, profile in SHIPPED_PROFILES.items()]
