"""Differential testing: run a certificate through a panel of verifier
backends, normalize every outcome into a 16-code taxonomy, detect
discrepancies and compute rewards.

Two backend kinds exist.  Simulated backends are parameterized reference
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


def reward_delta(v_before, v_after) -> int:
    """Growth in the number of distinct verdict categories."""
    return len(set(_codes(v_after))) - len(set(_codes(v_before)))


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


def derive_facts(data: bytes, trust: TrustStore) -> InputFacts:
    """The one pass over an input that every simulated profile shares."""
    try:
        cert = parse_der(data, lenient=True)
    except (MalformedDer, UnsupportedStructure):
        return InputFacts(None)

    names = (cert.issuer, cert.subject)
    name_failures = sum(attr.oid == oid.COUNTRY and len(attr.value) != 2 for name in names for attr in name.attributes())
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
            if cert.signature_value != b"\x00" + mock_sign(cert.tbs_raw, anchor.tag):
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

    linger = dt.timedelta(seconds=profile.time_linger_seconds)
    local_now = now + dt.timedelta(seconds=profile.local_time_offset_seconds)
    if int(cert.not_before.at.timestamp()) > int((local_now + linger).timestamp()):
        failures.append(VALIDITY_PERIOD_ERROR)
    elif int(local_now.timestamp()) > int((cert.not_after.at + linger).timestamp()):
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
    data = encode_der(cert) if isinstance(cert, Certificate) else bytes(cert)
    return judge(profile, derive_facts(data, trust), now)


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
class BackendSpec:
    """Configuration of one verifier backend.

    ``command`` entries may contain ``{cert}`` and ``{trust}``
    placeholders.  The pattern table must end with a catch-all rule
    mapping to "Other error".
    """

    id: str
    kind: str  # "simulated" | "external"
    profile: FlawProfile | None = None
    command: tuple[str, ...] = ()
    trust_path: str = ""
    patterns: tuple[PatternRule, ...] = ()
    timeout: float = 10.0

    def __post_init__(self):
        if self.kind not in ("simulated", "external"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "simulated" and self.profile is None:
            raise ValueError("simulated backend needs a profile")
        if self.kind == "external":
            if not self.command:
                raise ValueError("external backend needs a command")
            if not self.patterns or self.patterns[-1].match or self.patterns[-1].exit_status is not None:
                raise ValueError("pattern table must end with a catch-all rule")
            if self.patterns[-1].code != OTHER_ERROR:
                raise ValueError("the catch-all rule must map to Other error (-15)")


def external_verify(spec: BackendSpec, cert_bytes: bytes, trust_path: str) -> int:
    """Run an external utility on a certificate file and normalize its outcome."""
    with tempfile.NamedTemporaryFile(suffix=".der", delete=False) as handle:
        handle.write(cert_bytes)
        cert_path = handle.name
    try:
        argv = [arg.format(cert=cert_path, trust=trust_path) for arg in spec.command]
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                errors="replace",  # verifiers may emit non-UTF-8 diagnostics
                timeout=spec.timeout,
            )
        except FileNotFoundError as exc:
            raise BackendUnavailable(f"{spec.id}: {argv[0]} not found") from exc
        except subprocess.TimeoutExpired:
            log.warning("backend %s timed out after %.1fs; reporting connection error", spec.id, spec.timeout)
            return CONNECTION_ERROR
        combined = proc.stdout + proc.stderr
        for rule in spec.patterns:
            if rule.matches(proc.returncode, combined):
                return rule.code
        return OTHER_ERROR  # unreachable given the catch-all invariant
    finally:
        os.unlink(cert_path)


# ---------------------------------------------------------------------------
# Bound backends and the panel runner

class SimulatedBackend:
    kind = "simulated"

    def __init__(self, backend_id: str, profile: FlawProfile, trust: TrustStore):
        self.id = backend_id
        self.profile = profile
        self.trust = trust

    def verify_prepared(self, facts: InputFacts, now: dt.datetime) -> int:
        return judge(self.profile, facts, now)


class ExternalBackend:
    kind = "external"

    def __init__(self, spec: BackendSpec):
        self.id = spec.id
        self.spec = spec

    def verify_bytes(self, data: bytes) -> int:
        return external_verify(self.spec, data, self.spec.trust_path)


def bind_backends(specs, trust: TrustStore) -> list:
    """Attach runtime state to backend specs, dropping unavailable externals."""
    import shutil

    bound = []
    for spec in specs:
        if spec.kind == "simulated":
            bound.append(SimulatedBackend(spec.id, spec.profile, trust))
        else:
            if shutil.which(spec.command[0]) is None:
                log.warning("backend %s unavailable (%s not on PATH); skipping", spec.id, spec.command[0])
                continue
            bound.append(ExternalBackend(spec))
    return bound


def default_backends(trust: TrustStore) -> list[SimulatedBackend]:
    return [SimulatedBackend(name, profile, trust) for name, profile in SHIPPED_PROFILES.items()]


def verify_all(cert, backends, now: dt.datetime) -> VerdictVector:
    """One verdict per backend, in configuration order.

    External backends may run concurrently; the result order never
    depends on completion order.
    """
    if len(backends) < 2:
        raise InsufficientBackends(f"need at least 2 backends, have {len(backends)}")
    data = encode_der(cert) if isinstance(cert, Certificate) else bytes(cert)

    codes: list[int | None] = [None] * len(backends)
    facts_by_store: dict[TrustStore, InputFacts] = {}
    external_jobs = []
    for i, backend in enumerate(backends):
        if backend.kind == "simulated":
            facts = facts_by_store.get(backend.trust)
            if facts is None:
                facts = facts_by_store[backend.trust] = derive_facts(data, backend.trust)
            codes[i] = backend.verify_prepared(facts, now)
        else:
            external_jobs.append(i)
    if len(external_jobs) == 1:
        i = external_jobs[0]
        codes[i] = backends[i].verify_bytes(data)
    elif external_jobs:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(8, len(external_jobs))) as pool:
            futures = {pool.submit(backends[i].verify_bytes, data): i for i in external_jobs}
            for future in concurrent.futures.as_completed(futures):
                codes[futures[future]] = future.result()
    return VerdictVector(tuple(codes), tuple(b.id for b in backends))


# ---------------------------------------------------------------------------
# Backend configuration files

def load_backend_specs(path) -> list[BackendSpec]:
    """Read a backend configuration file (JSON, versioned)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("format") != "diffcert-backends" or doc.get("version") != 1:
        raise ValueError("not a diffcert backend configuration file")
    specs = []
    for entry in doc["backends"]:
        if entry["kind"] == "simulated":
            profile_spec = entry.get("profile", {})
            if isinstance(profile_spec, str):
                profile = SHIPPED_PROFILES[profile_spec]
            else:
                profile = replace(FlawProfile(), **profile_spec)
            specs.append(BackendSpec(entry["id"], "simulated", profile=profile))
        else:
            patterns = tuple(
                PatternRule(
                    code=rule["code"],
                    match=rule.get("match", ""),
                    is_regex=bool(rule.get("regex", False)),
                    exit_status=rule.get("exit_status"),
                )
                for rule in entry["patterns"]
            )
            specs.append(
                BackendSpec(
                    entry["id"],
                    "external",
                    command=tuple(entry["command"]),
                    trust_path=entry.get("trust", ""),
                    patterns=patterns,
                    timeout=float(entry.get("timeout", 10.0)),
                )
            )
    return specs


def default_backend_specs() -> list[BackendSpec]:
    return [BackendSpec(name, "simulated", profile=profile) for name, profile in SHIPPED_PROFILES.items()]
