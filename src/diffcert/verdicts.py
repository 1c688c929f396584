"""Differential testing: run a certificate through a panel of verifier
backends, normalize every outcome into a 16-code taxonomy and detect
discrepancies.

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
import string
import subprocess
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

from .certs import REFERENCE_TIME, SERIAL_END, SERIAL_MIN, Certificate, MalformedDer, UnsupportedStructure, encode_der, mock_sign, parse_der
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
    """One normalized code per backend, in configuration order, with
    ``is_discrepancy`` and the number of distinct verdicts (a connection
    error is none) worked out once; equality and hashing read only codes and ids."""

    codes: tuple[int, ...]
    backend_ids: tuple[str, ...]
    discrepancy: bool = field(init=False, repr=False, compare=False)
    categories: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "discrepancy", is_discrepancy(self.codes))
        object.__setattr__(self, "categories", len(set(self.codes) - {CONNECTION_ERROR}))


def is_discrepancy(v) -> bool:
    """True when the panel both accepted and rejected the same certificate.

    A connection error (an external verifier that timed out or could not
    run) is neither an acceptance nor a rejection.
    """
    return VALID in v and any(c not in (VALID, CONNECTION_ERROR) for c in v)


# ---------------------------------------------------------------------------
# Trust model

def _check_type(what: str, value, *types: type):
    # exact types, so a JSON "false", "1" or true is refused, not coerced
    if type(value) not in types:
        raise ValueError(f"{what}: expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    if type(value) is str and any("\ud800" <= c <= "\udfff" for c in value):  # a lone surrogate encodes to nothing
        raise ValueError(f"{what}: {value!r} is not UTF-8 text")
    return value


def read_keys(what: str, doc, required: tuple[str, ...], optional: dict) -> dict:
    """The JSON object ``doc`` with each absent ``optional`` key at its
    default; a missing ``required`` key or any other key is a ValueError,
    so a misspelt key is refused rather than read as its default."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")
    return {**optional, **doc}


def _refuse_repeated_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def load_json(text: str):
    """``text`` parsed as JSON; a key given twice in one object is a
    ValueError, where ``json.loads`` would read it as its last value."""
    return json.loads(text, object_pairs_hook=_refuse_repeated_keys)


def _read_body(doc, fmt: str, what: str, body: str) -> list:
    """The ``body`` list of a versioned diffcert file."""
    # version is the int 1: JSON true and 1.0 compare equal to it
    if not isinstance(doc, dict) or doc.get("format") != fmt or type(doc.get("version")) is not int or doc["version"] != 1:
        raise ValueError(f"not a diffcert {what} file")
    if type(doc.get(body)) is not list:
        raise ValueError(f"{what} has no {body!r} list")
    return read_keys(what, doc, ("format", "version", body), {})[body]


@dataclass(frozen=True)
class TrustAnchor:
    """A trusted name: its mock signing tag plus the chain facts the
    verifier needs (certificate version, root-or-intermediate)."""

    name_der: bytes
    tag: str
    version: int = 3
    is_root: bool = True

    def __post_init__(self):
        for name, want in (("tag", str), ("version", int), ("is_root", bool)):  # `mock_sign` hashes the tag as UTF-8
            _check_type(f"trust anchor {name}", getattr(self, name), want)


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
        store = cls()
        for entry in _read_body(load_json(text), "diffcert-trust", "trust store", "anchors"):
            entry = read_keys("trust anchor", entry, ("name_b64", "tag"), {"version": 3, "is_root": True})
            name_b64 = _check_type("trust anchor name_b64", entry["name_b64"], str)
            try:
                name_der = base64.b64decode(name_b64, validate=True)
            except ValueError as exc:
                raise ValueError(f"trust anchor name_b64: {name_b64!r} is not base64 ({exc})") from None
            if store.lookup(name_der) is not None:
                raise ValueError(f"trust anchor name_b64: {name_b64!r} appears twice")
            store.add(TrustAnchor(name_der, entry["tag"], entry["version"], entry["is_root"]))
        return store


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

    def __post_init__(self):
        for field in fields(self):
            _check_type(f"profile {field.name}", getattr(self, field.name), type(field.default))
        if self.parse_error_code not in _SEVERITY_RANK:  # `judge` ranks it beside the other failures
            raise ValueError(f"profile parse_error_code: {self.parse_error_code} is not a failure code in SEVERITY_ORDER")


STRICT_PROFILE = FlawProfile()

_NSS_OPENSSL = FlawProfile(
    accept_v1_with_v3_ext=True,
    accept_v2_with_v3_ext=True,
    accept_v4=True,
    accept_v1v2_intermediate=True,
    accept_nonpositive_serial=True,
    accept_long_serial=True,
    accept_weak_sig_alg=True,
    first_error_only=True,
)

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
    # nss-like and openssl-like are one profile today, so their columns never
    # disagree; splitting them would move every verdict and campaign lock
    "nss-like": _NSS_OPENSSL,
    "openssl-like": _NSS_OPENSSL,
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

# The entries of `InputFacts.failures`, as constants: deriving facts builds none.
_NAME_FAILURE = (SUBJECT_ISSUER_ERROR, None, True)
_EXT_VALUE_AS_PARSE = (PARSING_ERROR, "ext_value_error_as_parse", True)
_EXT_VALUE_FAILURES = {
    oid.BASIC_CONSTRAINTS: (BASIC_CONSTRAINTS_ERROR, "ext_value_error_as_parse", False),
    oid.KEY_USAGE: (KEY_USAGE_ERROR, "ext_value_error_as_parse", False),
}
_OTHER_EXT_VALUE = (OTHER_EXTENSION_ERROR, "ext_value_error_as_parse", False)
_UNKNOWN_CRITICAL = (UNKNOWN_CRITICAL_EXTENSION, "ignore_unknown_critical", False)
_VERSION_FAILURES = {  # versions 1 and 2 fail only with an extensions field
    1: (VERSION_ERROR, "accept_v1_with_v3_ext", False),
    2: (VERSION_ERROR, "accept_v2_with_v3_ext", False),
    4: (VERSION_ERROR, "accept_v4", False),
}
_BAD_VERSION = (VERSION_ERROR, None, True)
_WEAK_SIG_ALG = (ALGORITHM_ERROR, "accept_weak_sig_alg", False)
_VALIDITY = (VALIDITY_PERIOD_ERROR, None, True)  # where validity sits; `judge` drops it inside the window
_NONPOSITIVE_SERIAL = (OTHER_ERROR, "accept_nonpositive_serial", False)
_LONG_SERIAL = (OTHER_ERROR, "accept_long_serial", False)
_TRUST_FAILURES = {code: (code, None, True) for code in (SELF_SIGN, UNKNOWN_ISSUER, SIGNATURE_ERROR)}
# A rejected legacy chain stops the trust check before the signature.
_LEGACY_CHAIN = (CHAIN_ERROR, "accept_v1v2_intermediate", False)
_LEGACY_SIGNATURE = (SIGNATURE_ERROR, "accept_v1v2_intermediate", True)


class InputFacts(NamedTuple):
    """What verification derives from one input and a trust store,
    independently of any profile: all that `judge` reads.

    ``strict_ok`` says whether a strict parse succeeds too; the validity
    bounds are whole seconds.  ``failures`` holds the strict validator's
    failures in check order as ``(code, switch, counts)``: one counts for a
    profile whose ``switch`` setting equals ``counts``, and always when
    ``switch`` is None.  PARSING_ERROR stands for the profile's
    ``parse_error_code``.
    """

    strict_ok: bool
    not_before: int
    not_after: int
    failures: tuple[tuple[int, str | None, bool], ...]


def derive_facts(data: Certificate | bytes, trust: TrustStore, lenient: bool) -> InputFacts | None:
    """The one pass over an input that every simulated profile shares.

    A certificate is judged from its fields: they are what a parse of its
    encoding gives back.  Bytes are parsed.  None means no profile reads
    the input: even a lenient parse fails, or it is not strict DER and
    no profile is ``lenient``.
    """
    if isinstance(data, Certificate):
        cert = data
    else:
        try:
            cert = parse_der(data, lenient=True)
        except (MalformedDer, UnsupportedStructure):
            return None
    if not (cert.strict_der or lenient):
        return None

    # Check order: names, extension values read as parse errors, version,
    # algorithm, validity, serial, chain and trust, extensions.
    failures = [_NAME_FAILURE] * (cert.issuer.odd_countries + cert.subject.odd_countries)
    if not cert.subject.rdns and cert.extension(oid.SUBJECT_ALT_NAME) is None:
        failures.append(_NAME_FAILURE)
    ext_failures = []
    for ext in cert.extensions:
        if ext.oid in VALIDATOR_KNOWN_EXTENSIONS:
            if ext.malformed:
                failures.append(_EXT_VALUE_AS_PARSE)
                ext_failures.append(_EXT_VALUE_FAILURES.get(ext.oid, _OTHER_EXT_VALUE))
        elif ext.critical:
            ext_failures.append(_UNKNOWN_CRITICAL)
    version = cert.version
    if version not in (1, 2, 3) or version < 3 and cert.extensions:
        failures.append(_VERSION_FAILURES.get(version, _BAD_VERSION))
    if cert.signature_algorithm.oid not in SUPPORTED_SIG_ALGS:
        failures.append(_WEAK_SIG_ALG)
    failures.append(_VALIDITY)
    if cert.serial <= 0:
        failures.append(_NONPOSITIVE_SERIAL)
    if not SERIAL_MIN <= cert.serial < SERIAL_END:
        failures.append(_LONG_SERIAL)

    subject, issuer = cert.subject.der, cert.issuer.der
    if trust.lookup(subject) is None:  # an anchor itself is trusted by fiat
        anchor = trust.lookup(issuer)
        if anchor is None:
            failures.append(_TRUST_FAILURES[SELF_SIGN if subject == issuer else UNKNOWN_ISSUER])
        else:
            legacy = anchor.version < 3 and not anchor.is_root
            if legacy:
                failures.append(_LEGACY_CHAIN)
            if cert.signature_value != b"\x00" + mock_sign(cert.tbs, anchor.tag):
                failures.append(_LEGACY_SIGNATURE if legacy else _TRUST_FAILURES[SIGNATURE_ERROR])
    return InputFacts(cert.strict_der, cert.not_before.seconds, cert.not_after.seconds, tuple(failures + ext_failures))


def validity_window(profile: FlawProfile, now: dt.datetime) -> tuple[int, int]:
    """The latest notBefore and the earliest notAfter, in whole seconds,
    that ``profile``'s clock accepts at ``now``: offset by its local-time
    setting, with its linger as slack.  Integer seconds, so no clock,
    offset or linger overflows a datetime past year 9999."""
    local_now = int(now.timestamp()) + profile.local_time_offset_seconds
    linger = profile.time_linger_seconds
    return local_now + linger, local_now - linger


def judge(profile: FlawProfile, facts: InputFacts | None, window: tuple[int, int]) -> int:
    """One profile's verdict within its `validity_window`: the failures
    that count for it, then the first met or the most severe one."""
    if facts is None or not (facts.strict_ok or profile.lenient_parse):
        return profile.parse_error_code
    latest_start, earliest_end = window
    outside = facts.not_before > latest_start or facts.not_after < earliest_end
    parse_code = profile.parse_error_code
    failures = [
        parse_code if code == PARSING_ERROR else code
        for code, switch, counts in facts.failures
        if (switch is None or getattr(profile, switch) == counts) and (outside or code != VALIDITY_PERIOD_ERROR)
    ]
    if not failures:
        return VALID
    if profile.first_error_only:
        return failures[0]
    return min(failures, key=_SEVERITY_RANK.__getitem__)


# ---------------------------------------------------------------------------
# External verifier adapters

@dataclass(frozen=True)
class PatternRule:
    """One entry of an ordered output-matching table."""

    code: int
    match: str = ""  # substring, or regex when is_regex
    is_regex: bool = False
    exit_status: int | None = None

    def __post_init__(self):
        _check_type("pattern match", self.match, str)
        _check_type("pattern regex", self.is_regex, bool)
        if self.exit_status is not None:
            _check_type("pattern exit_status", self.exit_status, int)
        if self.is_regex:
            try:
                re.compile(self.match)
            except re.error as exc:
                raise ValueError(f"pattern regex {self.match!r}: {exc}") from None

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

    ``command`` entries may hold the placeholders ``{cert}``, ``{trust}``
    and ``{now}`` and no others; ``{trust}`` becomes ``trust_path`` (then
    required) and ``{now}`` the panel's clock in POSIX seconds.  The
    pattern table must end with a catch-all rule mapping to "Other error".
    """

    id: str
    command: tuple[str, ...]
    patterns: tuple[PatternRule, ...]
    trust_path: str = ""
    timeout: float = 10.0

    def __post_init__(self):
        _check_type("backend trust", self.trust_path, str)
        _check_type("backend timeout", self.timeout, int, float)
        if not self.command:
            raise ValueError("external backend needs a command")
        if not self.patterns or self.patterns[-1].match or self.patterns[-1].exit_status is not None:
            raise ValueError("pattern table must end with a catch-all rule")
        if self.patterns[-1].code != OTHER_ERROR:
            raise ValueError("the catch-all rule must map to Other error (-15)")
        if not all(type(rule.code) is int and rule.code in ALL_CODES for rule in self.patterns):
            raise ValueError("every pattern must map to a verdict code")
        if not 0 < self.timeout <= 2147483.647:  # `subprocess` waits in `poll`, at most 2**31 - 1 ms
            raise ValueError("backend timeout: must be above 0 and at most 2147483.647 seconds")
        for arg in self.command:
            _check_type("backend command argument", arg, str)
            try:  # the parse `reads_clock` reads: each field a bare name, nothing that picks part of a value
                fields = [field[1:] for field in string.Formatter().parse(arg) if field[1] is not None]
            except ValueError:  # an unmatched brace
                fields = None
            if fields is None or any(name not in ("cert", "trust", "now") or spec or conversion for name, spec, conversion in fields):
                raise ValueError(f"command argument {arg!r} has a placeholder other than {{cert}}, {{trust}} and {{now}}")
            if not self.trust_path and any(name == "trust" for name, _, _ in fields):
                raise ValueError(f"command argument {arg!r} holds {{trust}}, but the backend has no trust path")
            formatted = arg.format(cert="cert.der", trust=self.trust_path, now="0")
            if "\x00" in formatted:  # no OS argument holds one
                raise ValueError(f"command argument {formatted!r} holds a NUL")

    @property
    def reads_clock(self) -> bool:
        """Whether the command is given the clock: an argument holds ``{now}``."""
        return any(name == "now" for arg in self.command for _, name, _, _ in string.Formatter().parse(arg))


def external_verify(backend: ExternalBackend, cert_bytes: bytes, now: dt.datetime) -> int:
    """Run an external utility on a certificate file, at the clock ``now``
    when its command reads one, and normalize its outcome."""
    with tempfile.NamedTemporaryFile(suffix=".der", delete=False) as handle:
        handle.write(cert_bytes)
        cert_path = handle.name
    try:
        now_text = str(int(now.timestamp()))
        argv = [arg.format(cert=cert_path, trust=backend.trust_path, now=now_text) for arg in backend.command]
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
# Simulated backends and the panel

@dataclass(frozen=True)
class SimulatedBackend:
    """A flaw profile judging inputs against a trust store; ``trust`` is
    None until `bind_backends` supplies the campaign's store."""

    id: str
    profile: FlawProfile
    trust: TrustStore | None = None

    def verify_prepared(self, facts: InputFacts, window: tuple[int, int]) -> int:
        return judge(self.profile, facts, window)


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


class Panel:
    """The bound backends of one campaign under one clock, with what every
    verdict shares fixed once: ids, trust store, lenient flag, validity
    windows.  ``memo`` maps an input's facts, all that judging reads, to
    its verdicts; a panel with an external backend, which may answer
    otherwise when asked again, has none.  External commands are given
    ``now`` through ``{now}``; one without it judges at the host's clock,
    which the panel warns of."""

    def __init__(self, backends, now: dt.datetime):
        self.backends = tuple(backends)
        if len(self.backends) < 2:
            raise InsufficientBackends(f"need at least 2 backends, have {len(self.backends)}")
        if now.tzinfo is None:  # a naive clock would be read in the host's time zone
            raise ValueError(f"clock {now.isoformat()} has no UTC offset")
        self.now = now
        self.ids = tuple(backend.id for backend in self.backends)
        self.externals = tuple((i, b) for i, b in enumerate(self.backends) if isinstance(b, ExternalBackend))
        for _, backend in self.externals:
            if not backend.reads_clock:
                log.warning("backend %s: its command has no {now}, so it judges at the host clock, not at %s", backend.id, now.isoformat())
        self.simulated = tuple(
            (i, b, validity_window(b.profile, now)) for i, b in enumerate(self.backends) if not isinstance(b, ExternalBackend)
        )
        self.trust = self.simulated[0][1].trust if self.simulated else None
        for _, backend, _ in self.simulated:
            if backend.trust is None:
                raise ValueError(f"backend {backend.id!r} is not bound to a trust store; see bind_backends")
            if backend.trust is not self.trust:
                raise ValueError(f"backend {backend.id!r} is bound to another trust store than {self.ids[self.simulated[0][0]]!r}")
        self.lenient = any(backend.profile.lenient_parse for _, backend, _ in self.simulated)
        self.memo: dict[InputFacts | None, VerdictVector] | None = None if self.externals else {}


def verify_all(cert, panel, now: dt.datetime | None = None) -> VerdictVector:
    """One verdict per backend of ``panel``, in configuration order.

    Simulated backends judge a `Certificate` from its fields and parse
    bytes; external backends are given the encoding and run concurrently,
    in threads that live for this call.  Given bound backends, a one-shot
    panel judges at the clock ``now``, by default the campaigns'
    `REFERENCE_TIME`.  A `Panel` judges at its own clock, so it refuses
    another one with ValueError.
    """
    if not isinstance(panel, Panel):
        return verify_all(cert, Panel(panel, REFERENCE_TIME if now is None else now))
    if now is not None:
        raise ValueError("verify_all: a Panel judges at its own clock; pass no `now` with it")
    data = cert if isinstance(cert, Certificate) else bytes(cert)
    memo = panel.memo
    if panel.simulated:
        facts = derive_facts(data, panel.trust, panel.lenient)
        if memo is not None:
            verdicts = memo.get(facts)  # a stored vector is never None
            if verdicts is not None:
                return verdicts
    codes: list[int | None] = [None] * len(panel.backends)
    for i, backend, window in panel.simulated:
        codes[i] = backend.verify_prepared(facts, window)
    if panel.externals:
        der = encode_der(data) if isinstance(data, Certificate) else data
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(8, len(panel.externals))) as pool:
            outcomes = pool.map(lambda external: external_verify(external[1], der, panel.now), panel.externals)
            for (i, _), code in zip(panel.externals, outcomes):
                codes[i] = code
    verdicts = VerdictVector(tuple(codes), panel.ids)
    if memo is not None:
        memo[facts] = verdicts
    return verdicts


# ---------------------------------------------------------------------------
# Backend configuration files

def load_backend_specs(path) -> list:
    """Read a backend configuration file (JSON, versioned) into unbound
    `SimulatedBackend`s and `ExternalBackend`s."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = load_json(handle.read())
    backends = []
    for entry in _read_body(doc, "diffcert-backends", "backend configuration", "backends"):
        kind = _check_type("backend entry", entry, dict).get("kind")
        if kind == "simulated":
            entry = read_keys("simulated backend", entry, ("id", "kind"), {"profile": {}})
            profile = entry["profile"]
            if isinstance(profile, str):
                if profile not in SHIPPED_PROFILES:
                    raise ValueError(f"\"profile\": unknown shipped profile {profile!r} (known: {', '.join(SHIPPED_PROFILES)})")
                profile = SHIPPED_PROFILES[profile]
            else:
                profile = FlawProfile(**read_keys("profile", profile, (), asdict(STRICT_PROFILE)))
            backend = SimulatedBackend(entry["id"], profile)
        elif kind == "external":
            entry = read_keys("external backend", entry, ("id", "kind", "command", "patterns"), {"timeout": 10.0, "trust": ""})
            rules = [
                read_keys("pattern", rule, ("code",), {"match": "", "regex": False, "exit_status": None})
                for rule in _check_type("backend patterns", entry["patterns"], list)
            ]
            patterns = tuple(PatternRule(rule["code"], rule["match"], rule["regex"], rule["exit_status"]) for rule in rules)
            command = tuple(_check_type("backend command", entry["command"], list))
            backend = ExternalBackend(entry["id"], command, patterns, entry["trust"], entry["timeout"])
        else:
            raise ValueError(f"unknown backend kind {kind!r}")
        _check_type("backend id", backend.id, str)
        if any(other.id == backend.id for other in backends):
            raise ValueError(f"backend id {backend.id!r} appears twice")
        backends.append(backend)
    return backends


def default_backend_specs() -> list[SimulatedBackend]:
    return [SimulatedBackend(name, profile) for name, profile in SHIPPED_PROFILES.items()]
