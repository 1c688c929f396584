"""Differential-testing tests: the taxonomy fixture suite for the strict
validator, profile monotonicity, discrepancy/reward semantics and the
external subprocess adapters."""

import base64
import dataclasses
import datetime
import functools
import hashlib
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diffcert import actions, asn1, campaign, cli, features, verdicts, x509oids as oid
from diffcert.certs import (
    REFERENCE_TIME,
    ExtensionParam,
    SeedParams,
    TimeValue,
    build_synthetic,
    encode_der,
    encode_tbs,
    mock_sign,
    parse_der,
    signature_bits,
)
from diffcert.corpus import generate_corpus
from diffcert.verdicts import (
    ALL_CODES,
    STRICT_PROFILE,
    SHIPPED_PROFILES,
    BackendUnavailable,
    ExternalBackend,
    FlawProfile,
    InsufficientBackends,
    Panel,
    PatternRule,
    SimulatedBackend,
    TrustAnchor,
    TrustStore,
    VerdictVector,
    default_backend_specs,
    external_verify,
    is_discrepancy,
    load_backend_specs,
    verify_all,
)

from verdict_helpers import default_backends, reference_derive_facts, reference_judge, reference_validity_window, simulate_verify

NOW = REFERENCE_TIME
ONE_YEAR = 365 * 24 * 3600


def issued(signer_tag="acme-root", **kwargs):
    return build_synthetic(SeedParams(signer_tag=signer_tag, **kwargs), 7)


@pytest.fixture()
def env():
    """An issued fixture plus the trust store that knows its issuer."""
    cert = issued()
    store = TrustStore()
    store.add(TrustAnchor(cert.issuer.der, "acme-root"))
    return cert, store


# ---------------------------------------------------------------------------
# Taxonomy conformance suite: one single-defect fixture per code the
# strict validator can reach (-13 is external-only and unreachable here).

def taxonomy_fixtures():
    base = SeedParams()
    store = TrustStore()
    store.add(TrustAnchor(issued().issuer.der, "acme-root"))
    cases = []

    cases.append((1, issued(), store))
    # -1: issuer not in the trust store
    unknown = build_synthetic(
        dataclasses.replace(base, issuer_common_name="Nobody CA", signer_tag="nobody"), 7
    )
    cases.append((-1, unknown, store))
    # -2: expired long ago
    cases.append((-2, issued(not_after_offset=-ONE_YEAR), store))
    # -3: malformed DER bytes
    cases.append((-3, encode_der(issued())[:-7], store))
    # -4: version 4 (no extensions, so the version check is the only defect)
    cases.append((-4, issued(version=4, extensions=()), store))
    # -5: unsupported signature algorithm
    cases.append((-5, issued(sig_alg_oid=oid.MD5_RSA), store))
    # -6: signed with a tag the trust store does not vouch for
    cases.append((-6, issued(signer_tag="rogue"), store))
    # -7: empty subject without a subjectAltName
    cases.append(
        (
            -7,
            issued(
                subject_common_name=None,
                subject_country=None,
                extensions=(ExtensionParam(oid.BASIC_CONSTRAINTS, critical=True),),
            ),
            store,
        )
    )
    # -8: keyUsage with an empty bit string
    cases.append((-8, issued(extensions=(ExtensionParam(oid.KEY_USAGE, True, b"\x03\x01\x00"),)), store))
    # -9: malformed basicConstraints value
    cases.append((-9, issued(extensions=(ExtensionParam(oid.BASIC_CONSTRAINTS, True, b"\x30\x05\x01"),)), store))
    # -10: critical extension the validator does not understand
    cases.append((-10, issued(extensions=(ExtensionParam(oid.SCT_LIST, True, b"\x04\x02ab"),)), store))
    # -11: issued by a v1 intermediate anchor
    legacy = build_synthetic(
        dataclasses.replace(base, issuer_common_name="Legacy CA", signer_tag="legacy"), 7
    )
    legacy_store = TrustStore()
    legacy_store.add(TrustAnchor(legacy.issuer.der, "legacy", version=1, is_root=False))
    cases.append((-11, legacy, legacy_store))
    # -12: self-signed leaf nobody trusts
    self_signed = build_synthetic(
        dataclasses.replace(
            base,
            issuer_common_name="selfie.example.test",
            issuer_country="US",
            subject_common_name="selfie.example.test",
            subject_country="US",
            signer_tag="selfie",
        ),
        7,
    )
    cases.append((-12, self_signed, store))
    # -14: malformed value in another tracked extension
    cases.append((-14, issued(extensions=(ExtensionParam(oid.EXT_KEY_USAGE, False, b"\x30\x05\x01"),)), store))
    # -15: zero serial
    cases.append((-15, issued(serial=0), store))
    return cases


@pytest.mark.parametrize("expected,cert,store", taxonomy_fixtures(), ids=lambda v: str(v) if isinstance(v, int) else "")
def test_strict_taxonomy(expected, cert, store):
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == expected


def test_strict_reachable_codes_cover_taxonomy():
    reachable = {expected for expected, _, _ in taxonomy_fixtures()}
    assert reachable == set(ALL_CODES) - {-13}


ACCEPTANCE_SWITCHES = [
    "accept_v1_with_v3_ext",
    "accept_v2_with_v3_ext",
    "accept_v4",
    "accept_v1v2_intermediate",
    "accept_nonpositive_serial",
    "accept_long_serial",
    "accept_weak_sig_alg",
    "ignore_unknown_critical",
    "lenient_parse",
]


@pytest.mark.parametrize("switch", ACCEPTANCE_SWITCHES)
def test_profile_monotonicity(switch):
    # enabling one acceptance switch never turns an accept into a reject
    profile = dataclasses.replace(STRICT_PROFILE, **{switch: True})
    for _, cert, store in taxonomy_fixtures():
        strict = simulate_verify(STRICT_PROFILE, cert, store, NOW)
        if strict == 1:
            assert simulate_verify(profile, cert, store, NOW) == 1


def test_time_linger_accepts_recently_expired(env):
    _, store = env
    cert = issued(not_after_offset=-12 * 3600)  # expired 12h ago
    strict = simulate_verify(STRICT_PROFILE, cert, store, NOW)
    linger = simulate_verify(dataclasses.replace(STRICT_PROFILE, time_linger_seconds=86400), cert, store, NOW)
    assert strict == -2
    assert linger == 1
    # and just past the linger window both reject
    stale = issued(not_after_offset=-36 * 3600)
    assert simulate_verify(dataclasses.replace(STRICT_PROFILE, time_linger_seconds=86400), stale, store, NOW) == -2


def test_local_time_flaw(env):
    _, store = env
    # notAfter == now: fine in GMT, expired for a validator 8h "ahead"
    cert = issued(not_after_offset=0)
    local = dataclasses.replace(STRICT_PROFILE, local_time_offset_seconds=8 * 3600)
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == 1
    assert simulate_verify(local, cert, store, NOW) == -2


def test_no_expiry_date_is_judged(env):
    # notAfter 99991231235959Z, RFC 5280's "no well-defined expiration
    # date", signed afresh: a one-day linger past it is no datetime, so
    # judgement must not build one
    _, store = env
    no_expiry = TimeValue(datetime.datetime(9999, 12, 31, 23, 59, 59, tzinfo=asn1.UTC), asn1.GENERALIZED_TIME)
    tbs = encode_tbs(dataclasses.replace(issued(), not_after=no_expiry))
    cert = parse_der(asn1.tlv(asn1.SEQUENCE, tbs + issued().outer_sig_alg_raw + asn1.tlv(asn1.BIT_STRING, signature_bits(tbs, "acme-root"))))
    backends = default_backends(store)
    assert verify_all(encode_der(cert), backends, NOW).codes == (1,) * len(SHIPPED_PROFILES)
    for action in range(actions.CATALOG_SIZE):
        mutant = actions.apply(cert, action)
        assert len(features.extract(mutant)) == features.FEATURE_LENGTH
        assert verify_all(mutant, backends, NOW).codes == verify_all(encode_der(mutant), backends, NOW).codes


def _outside_validity_per_datetimes(profile, not_before, not_after, now):
    """The validity check as datetime sums: is either bound (whole
    seconds) outside what ``profile``'s clock accepts at ``now``?"""
    linger = profile.time_linger_seconds
    local_now = now + datetime.timedelta(seconds=profile.local_time_offset_seconds)
    return not_before > int((local_now + datetime.timedelta(seconds=linger)).timestamp()) or (
        int(local_now.timestamp()) > not_after + linger
    )


@pytest.mark.parametrize("now", [NOW, datetime.datetime(2031, 7, 15, 12, 34, 56, tzinfo=asn1.UTC)])
def test_validity_window_matches_datetime_sums(now):
    # judge compares the bounds with thresholds computed once per clock
    # setting; they must reject exactly what the datetime sums reject, at
    # one second either side of each threshold and at the no-expiry date
    no_expiry = int(datetime.datetime(9999, 12, 31, 23, 59, 59, tzinfo=asn1.UTC).timestamp())
    seen = set()
    for profile in (STRICT_PROFILE, *SHIPPED_PROFILES.values()):
        local_now = now + datetime.timedelta(seconds=profile.local_time_offset_seconds)
        latest_start = int(local_now.timestamp()) + profile.time_linger_seconds
        earliest_end = int(local_now.timestamp()) - profile.time_linger_seconds
        for not_before in (latest_start - ONE_YEAR, latest_start - 1, latest_start, latest_start + 1):
            for not_after in (earliest_end - 1, earliest_end, earliest_end + 1, no_expiry):
                facts = verdicts.InputFacts(strict_ok=True, not_before=not_before, not_after=not_after)
                expected = _outside_validity_per_datetimes(profile, not_before, not_after, now)
                code = verdicts.judge(profile, facts, verdicts.validity_window(profile, now))
                assert code == (-2 if expected else 1), (profile, not_before, not_after)
                seen.add(expected)
    assert seen == {True, False}


def test_version_flaw_switches(env):
    _, store = env
    v2 = actions.apply(issued(), 1)  # v2 with v3 extensions, anchored? no: issued -> stale sig
    # use an anchored cert so the version check is the deciding one
    anchored = build_synthetic(
        SeedParams(
            issuer_common_name="a.test",
            issuer_country="US",
            subject_common_name="a.test",
            subject_country="US",
            signer_tag="a",
        ),
        3,
    )
    astore = TrustStore()
    astore.add(TrustAnchor(anchored.subject.der, "a"))
    v2 = actions.apply(anchored, 1)
    assert simulate_verify(STRICT_PROFILE, v2, astore, NOW) == -4
    accept2 = dataclasses.replace(STRICT_PROFILE, accept_v2_with_v3_ext=True)
    assert simulate_verify(accept2, v2, astore, NOW) == 1
    accept1 = dataclasses.replace(STRICT_PROFILE, accept_v1_with_v3_ext=True)
    assert simulate_verify(accept1, v2, astore, NOW) == -4  # v1 switch does not cover v2


def test_first_error_only_vs_most_severe(env):
    _, store = env
    # two defects: expired (validity) and unknown-critical (extension stage)
    cert = issued(
        not_after_offset=-ONE_YEAR,
        extensions=SeedParams().extensions + (ExtensionParam(oid.SCT_LIST, True, b"\x04\x02ab"),),
    )
    first = dataclasses.replace(STRICT_PROFILE, first_error_only=True)
    assert simulate_verify(first, cert, store, NOW) == -2  # validity met first
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == -2  # -2 outranks -10
    # flip severity: signature beats validity in the severity order
    rogue = issued(signer_tag="rogue", not_after_offset=-ONE_YEAR)
    assert simulate_verify(STRICT_PROFILE, rogue, store, NOW) == -6
    assert simulate_verify(first, rogue, store, NOW) == -2  # validity checked before trust


def test_shipped_profiles_table(env):
    cert, store = env
    backends = default_backends(store)
    assert [b.id for b in backends] == list(SHIPPED_PROFILES)
    assert len(backends) == 6
    v = verify_all(cert, backends, NOW)
    assert v.codes == (1, 1, 1, 1, 1, 1)


def test_equal_shipped_profiles_are_one_object():
    # an equal pair is one deliberate binding (nss-like is openssl-like);
    # any other equal pair would be a column that can never disagree with its twin
    assert SHIPPED_PROFILES["nss-like"] is SHIPPED_PROFILES["openssl-like"]
    equal = {
        (a, b)
        for a, b in itertools.combinations(SHIPPED_PROFILES, 2)
        if SHIPPED_PROFILES[a] == SHIPPED_PROFILES[b]
    }
    assert equal == {("nss-like", "openssl-like")}


def test_example_discrepancy_vector_shapes(env):
    # an expired-12h issued cert splits the panel: acceptance plus
    # rejections, the shape the discrepancy encoding illustrates
    _, store = env
    cert = issued(not_after_offset=-12 * 3600)
    v = verify_all(cert, default_backends(store), NOW)
    assert 1 in v.codes and any(c != 1 for c in v.codes)
    assert v.codes[1] == 1  # matrixssl-like lingers
    assert v.codes.count(-2) == 5


def test_verify_all_requires_two_backends(env):
    cert, store = env
    with pytest.raises(InsufficientBackends):
        verify_all(cert, default_backends(store)[:1], NOW)


def test_verify_all_without_a_clock_judges_at_the_reference_time():
    # the one-shot form defaults to the clock every campaign uses
    corpus = generate_corpus(30, 1)
    backends = default_backends(corpus.trust)
    later = REFERENCE_TIME + datetime.timedelta(days=365 * 30)
    moved = 0
    for entry in corpus.entries:
        vector = verify_all(entry.der, backends)
        assert vector == verify_all(entry.der, backends, REFERENCE_TIME)
        moved += vector != verify_all(entry.der, backends, later)
    assert moved > 0  # the clock is read, not ignored


def test_verify_all_refuses_a_clock_with_an_open_panel():
    # a panel judges at the clock it was built with; a second clock
    # would be ignored, so it is refused, even the same one
    corpus = generate_corpus(30, 1)
    backends = default_backends(corpus.trust)
    later = REFERENCE_TIME + datetime.timedelta(days=365 * 30)
    panel = Panel(backends, REFERENCE_TIME)
    for clock in (later, REFERENCE_TIME):
        with pytest.raises(ValueError, match="its own clock"):
            verify_all(corpus.entries[0].der, panel, clock)
    # the one-shot form judges as a panel built at its clock
    for entry in corpus.entries:
        assert verify_all(entry.der, backends) == verify_all(entry.der, panel)
    panel = Panel(backends, later)
    for entry in corpus.entries:
        assert verify_all(entry.der, backends, later) == verify_all(entry.der, panel)


def test_panel_refuses_a_clock_without_a_utc_offset():
    # a naive clock is read in the host's time zone, so two hosts would
    # judge one input at two instants
    corpus = generate_corpus(2, 1)
    backends = default_backends(corpus.trust)
    naive = REFERENCE_TIME.replace(tzinfo=None)
    for build in (lambda: Panel(backends, naive), lambda: verify_all(corpus.entries[0].der, backends, naive)):
        with pytest.raises(ValueError, match="has no UTC offset"):
            build()
    later = REFERENCE_TIME.astimezone(datetime.timezone(datetime.timedelta(hours=2)))
    assert Panel(backends, later).now == REFERENCE_TIME  # any offset names an instant


def test_verify_all_order_is_configuration_order(env):
    cert, store = env
    backends = default_backends(store)
    a = verify_all(cert, backends, NOW)
    b = verify_all(cert, list(reversed(backends)), NOW)
    assert a.backend_ids == tuple(reversed(b.backend_ids))
    assert a.codes == tuple(reversed(b.codes))


# ---------------------------------------------------------------------------
# Discrepancy predicate and rewards

def test_is_discrepancy_examples():
    assert is_discrepancy([1, -14, -6, 1, 1, 1])
    assert not is_discrepancy([1, 1, 1, 1, 1, 1])
    assert not is_discrepancy([-1, -2, -3, -4, -5, -6])


def as_vector(codes) -> VerdictVector:
    return VerdictVector(tuple(codes), tuple(f"b{i}" for i in range(len(codes))))


def primary(codes) -> tuple[int, bool]:
    # the primary reward reads only the mutant's vector
    return campaign.reward("primary", as_vector(codes), as_vector(codes))


def delta(before, after) -> tuple[int, bool]:
    return campaign.reward("delta", as_vector(after), as_vector(before))


def test_connection_error_is_neither_accept_nor_reject():
    # an external verifier that timed out says nothing about the certificate
    assert not is_discrepancy((1, -13))
    assert not is_discrepancy((1, 1, -13))
    assert is_discrepancy((1, -13, -4))
    assert primary((1, -13)) == (-1, False)
    assert primary((1, -13, -4)) == (100, True)


def test_primary_reward_examples():
    assert primary([1, -14, -6, 1, 1, 1]) == (100, True)
    assert primary([1, 1, 1, 1, 1, 1]) == (-1, False)
    assert primary([-2, -2, -2, -2, -2, -2]) == (-1, False)


def test_delta_reward_examples():
    before = [1, 1, 1, 1, 1, 1]
    after = [1, -14, -6, 1, 1, 1]
    # category counts 1 -> 3 per the distinct-verdict definition
    assert len(set(before)) == 1 and len(set(after)) == 3
    assert delta(before, after) == (2, True)
    assert delta(after, after) == (0, False)
    assert delta(after, before) == (-2, False)
    # no growth, but every backend gave a verdict of its own: nothing is left to find
    assert delta([-2, -3], [-4, -5]) == (0, True)


codes_strategy = st.lists(st.sampled_from(ALL_CODES), min_size=2, max_size=8)


@settings(max_examples=300)
@given(codes=codes_strategy)
def test_discrepancy_predicate_property(codes):
    expected = (1 in codes) and any(c not in (1, -13) for c in codes)
    assert is_discrepancy(codes) == expected
    assert primary(codes) == ((100, True) if expected else (-1, False))
    # a vector carries the flag and its category count; equality, hashing
    # and repr still read only the codes and the ids
    ids = tuple(f"b{i}" for i in range(len(codes)))
    vector = VerdictVector(tuple(codes), ids)
    assert vector.discrepancy == expected and vector.categories == len(set(codes) - {-13})
    assert vector == VerdictVector(tuple(codes), ids) and hash(vector) == hash((tuple(codes), ids))
    assert repr(vector) == f"VerdictVector(codes={tuple(codes)!r}, backend_ids={ids!r})"


@settings(max_examples=200)
@given(before=codes_strategy, after=codes_strategy)
def test_delta_reward_property(before, after):
    growth = len(set(after) - {-13}) - len(set(before) - {-13})
    assert delta(before, after) == (growth, growth > 0 or len(set(after) - {-13}) == len(after))


def test_connection_error_is_no_delta_category():
    # a timed-out external verifier adds no verdict category
    assert delta((1, 1), (1, -13)) == (0, False)
    assert delta((1, -13), (1, -2)) == (1, True)
    assert delta((-4, -13), (-4, -5)) == (1, True)


# ---------------------------------------------------------------------------
# External backend adapters

def _script_backend(script: str, patterns, timeout=10.0, command_prefix=None):
    command = tuple(command_prefix or (sys.executable, "-c", script, "{cert}", "{trust}"))
    return ExternalBackend("stub", command, tuple(patterns), timeout=timeout)


CATCH_ALL = PatternRule(code=-15)


def test_pattern_rule_regex_searches_the_output():
    rule = PatternRule(code=-2, match=r"has exp\w+ed", is_regex=True)
    assert rule.matches(1, "error 10: certificate has expired")
    assert not rule.matches(1, "certificate has not expired yet")
    # the same text as a substring rule matches only itself
    assert not PatternRule(code=-2, match=r"has exp\w+ed").matches(1, "certificate has expired")


def test_external_verify_pattern_match(tmp_path):
    # transcript fixture: the stub prints a canned "expired" diagnostic
    spec = _script_backend(
        "import sys; print('certificate has expired'); sys.exit(2)",
        [PatternRule(code=-2, match="certificate has expired"), CATCH_ALL],
    )
    assert external_verify(spec, b"\x30\x00") == -2


def test_external_verify_exit_status_rule(tmp_path):
    spec = _script_backend(
        "import sys; sys.exit(0)",
        [PatternRule(code=1, exit_status=0), PatternRule(code=-2, match="expired"), CATCH_ALL],
    )
    assert external_verify(spec, b"\x30\x00") == 1


def test_external_verify_first_match_wins(tmp_path):
    spec = _script_backend(
        "print('expired and self signed')",
        [PatternRule(code=-12, match="self signed"), PatternRule(code=-2, match="expired"), CATCH_ALL],
    )
    assert external_verify(spec, b"\x30\x00") == -12


def test_external_verify_unmatched_falls_through(tmp_path):
    spec = _script_backend(
        "print('some novel diagnostic nobody classified')",
        [PatternRule(code=-2, match="expired"), CATCH_ALL],
    )
    assert external_verify(spec, b"\x30\x00") == -15


def test_external_verify_receives_cert_file(tmp_path):
    script = "import sys; blob = open(sys.argv[1], 'rb').read(); print('LEN', len(blob))"
    spec = _script_backend(script, [PatternRule(code=1, match="LEN 4"), CATCH_ALL])
    assert external_verify(spec, b"\x30\x02\x05\x00") == 1


def test_external_verify_tolerates_non_utf8_output():
    script = "import sys; sys.stdout.buffer.write(b'bad \\xff\\xfe bytes then expired\\n')"
    spec = _script_backend(script, [PatternRule(code=-2, match="expired"), CATCH_ALL])
    assert external_verify(spec, b"\x30\x00") == -2


def test_external_verify_timeout_maps_to_connection_error():
    spec = _script_backend(
        "import time; time.sleep(5)",
        [CATCH_ALL],
        timeout=0.3,
    )
    assert external_verify(spec, b"\x30\x00") == -13


@pytest.mark.skipif(shutil.which("openssl") is None, reason="openssl not installed")
def test_openssl_verify_adapter():
    # the real utility's exit status and diagnostics through the pattern table
    backend = ExternalBackend(
        "openssl",
        ("openssl", "verify", "-no-CAfile", "-no-CApath", "-no-CAstore", "{cert}"),
        (
            PatternRule(code=-1, match="unable to get local issuer certificate"),
            PatternRule(code=1, exit_status=0),
            CATCH_ALL,
        ),
    )
    assert external_verify(backend, encode_der(issued())) == -1
    assert external_verify(backend, b"\x30\x00") == -15


def test_external_verify_missing_binary():
    spec = ExternalBackend("gone", ("/nonexistent/verifier", "{cert}"), (CATCH_ALL,))
    with pytest.raises(BackendUnavailable):
        external_verify(spec, b"\x30\x00")


def test_backend_spec_requires_catch_all():
    with pytest.raises(ValueError):
        ExternalBackend("x", ("v",), (PatternRule(code=-2, match="expired"),))
    with pytest.raises(ValueError):
        ExternalBackend("x", ("v",), (PatternRule(code=-2),))


@pytest.mark.parametrize("code", [7, "1", True, 1.0])
def test_backend_spec_patterns_map_to_verdict_codes(code):
    # a backend's verdict lands in discrepancy records, which hold only codes
    with pytest.raises(ValueError, match="verdict code"):
        ExternalBackend("x", ("v",), (PatternRule(code=code, exit_status=0), CATCH_ALL))


@pytest.mark.parametrize(
    "arg", ["{certfile}", "{}", "{0}", "{cert", "{cert.name}", "{now.real}", "{cert[0]}", "{trust[1]}", "{now[0]}", "{now!r}", "{cert:.3}"]
)
def test_backend_command_formats_with_cert_and_trust_alone(arg):
    with pytest.raises(ValueError, match="command argument"):
        ExternalBackend("x", ("v", arg), (CATCH_ALL,), trust_path="/etc/roots.pem")
    ExternalBackend("x", ("v", "{cert}", "--CAfile={trust}", "-attime={now}", "{{literal}}"), (CATCH_ALL,))


_ECHO_NOW = "import sys; open(sys.argv[1], 'a').write(sys.argv[2] + '\\n')"  # appends its clock argument to a log


def test_external_command_is_given_the_panel_clock(env, tmp_path, caplog):
    # `{now}` is the panel's clock in POSIX seconds: panels at two clocks
    # hand the command two values, and a command without it is warned of
    cert, store = env
    log = tmp_path / "clocks"
    echo = ExternalBackend("echo", (sys.executable, "-c", _ECHO_NOW, str(log), "-attime={now}"), (CATCH_ALL,))
    (simulated,) = verdicts.bind_backends([SimulatedBackend("sim", STRICT_PROFILE)], store)
    clocks = (NOW, NOW + datetime.timedelta(days=400, seconds=7))
    with caplog.at_level("WARNING", logger="diffcert.verdicts"):
        for now in clocks:
            assert verify_all(cert, Panel((simulated, echo), now)).codes[1] == -15
        assert not caplog.records
        host_clock = dataclasses.replace(echo, command=echo.command[:-1])
        Panel((simulated, host_clock), NOW)
        Panel((simulated, simulated), NOW)
    assert log.read_text().splitlines() == [f"-attime={int(now.timestamp())}" for now in clocks]
    assert [record.getMessage() for record in caplog.records] == [
        f"backend echo: its command has no {{now}}, so it judges at the host clock, not at {NOW.isoformat()}"
    ]
    assert echo.reads_clock and not host_clock.reads_clock
    assert not ExternalBackend("x", ("v", "{{now}}"), (CATCH_ALL,)).reads_clock  # a literal, not a placeholder


def test_bind_backends_drops_missing_external(env):
    cert, store = env
    specs = [
        SimulatedBackend("sim-a", STRICT_PROFILE),
        SimulatedBackend("sim-b", SHIPPED_PROFILES["matrixssl-like"]),
        ExternalBackend("gone", ("/nonexistent/verifier", "{cert}"), (CATCH_ALL,)),
        ExternalBackend("here", (sys.executable, "{cert}"), (CATCH_ALL,)),
    ]
    bound = verdicts.bind_backends(specs, store)
    assert [b.id for b in bound] == ["sim-a", "sim-b", "here"]
    assert bound[2] is specs[3]  # an external on PATH is kept as it is
    assert all(b.trust is store for b in bound[:2])
    v = verify_all(cert, bound[:2], NOW)
    assert v.backend_ids == ("sim-a", "sim-b")


def test_readme_backend_config_loads(tmp_path):
    # the configuration example in the README stays loadable
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Backend configuration") :]
    path = tmp_path / "backends.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    loaded = load_backend_specs(path)
    assert [type(b) for b in loaded] == [SimulatedBackend, ExternalBackend]
    assert loaded[0].profile == SHIPPED_PROFILES["gnutls-like"]
    assert loaded[1].trust_path and loaded[1].patterns[-1] == CATCH_ALL


def test_load_backend_specs_rejects_unknown_kind(tmp_path):
    path = tmp_path / "backends.json"
    path.write_text('{"format": "diffcert-backends", "version": 1, "backends": [{"id": "a", "kind": "simulatd"}]}')
    with pytest.raises(ValueError, match="simulatd"):
        load_backend_specs(path)


def test_verify_all_mixed_simulated_external(env, tmp_path):
    cert, store = env
    stub = _script_backend("import sys; sys.exit(0)", [PatternRule(code=1, exit_status=0), CATCH_ALL])
    backends = default_backends(store) + [stub]
    v = verify_all(cert, backends, NOW)
    assert len(v.codes) == 7
    assert v.codes[-1] == 1


def test_external_panel_skips_the_memo(env, tmp_path):
    # an external verifier may answer otherwise when asked again, so a
    # panel holding one is asked every time and the memo stays empty
    cert, store = env
    log = tmp_path / "calls"
    script = "import sys; open(sys.argv[1], 'a').write('x')"
    stub = ExternalBackend("stub", (sys.executable, "-c", script, str(log)), (PatternRule(code=1, exit_status=0), CATCH_ALL))
    panel = Panel(default_backends(store)[:1] + [stub], NOW)
    first = verify_all(cert, panel)
    assert verify_all(cert, panel) == first
    assert panel.memo is None and log.read_text() == "xx"
    simulated = Panel(default_backends(store), NOW)
    vector = verify_all(cert, simulated)
    assert simulated.memo == {verdicts.derive_facts(cert, store, True): vector}
    assert verify_all(encode_der(cert), simulated) is vector


def test_panel_rejects_unbound_backends(env):
    # an unbound simulated backend has no store to judge trust against:
    # the panel names it instead of failing inside the facts pass
    cert, _ = env
    with pytest.raises(ValueError, match="'gnutls-like' is not bound"):
        verify_all(encode_der(cert), default_backend_specs(), NOW)
    with pytest.raises(ValueError, match="'gnutls-like' is not bound"):
        Panel(default_backend_specs(), NOW)


def test_panel_rejects_mixed_trust_stores(env):
    # one panel judges every input against one store
    cert, store = env
    first, second = default_backend_specs()[:2]
    backends = verdicts.bind_backends([first], store) + verdicts.bind_backends([second], TrustStore())
    with pytest.raises(ValueError, match="'matrixssl-like' is bound to another trust store than 'gnutls-like'"):
        verify_all(cert, backends, NOW)


def test_verify_all_multiple_externals_keep_configured_order(env):
    # two external backends run through the thread pool; results land in
    # configuration order regardless of completion order
    cert, store = env
    slow = ExternalBackend(
        "slow",
        (sys.executable, "-c", "import time; time.sleep(0.4); print('ok')", "{cert}"),
        (PatternRule(code=1, match="ok"), CATCH_ALL),
    )
    fast = ExternalBackend(
        "fast",
        (sys.executable, "-c", "print('expired')", "{cert}"),
        (PatternRule(code=-2, match="expired"), CATCH_ALL),
    )
    backends = [slow, fast]
    v = verify_all(cert, backends, NOW)
    assert v.backend_ids == ("slow", "fast")
    assert v.codes == (1, -2)


def test_nonpositive_serial_switch(env):
    # a negative serial is the only defect: the acceptance switch hands
    # the decision to the remaining checks
    _, store = env
    cert = issued(serial=-12345)
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == -15
    lenient = dataclasses.replace(STRICT_PROFILE, accept_nonpositive_serial=True)
    assert simulate_verify(lenient, cert, store, NOW) == 1
    # overlong serials have their own switch
    long_serial = issued(serial=1 << 170)  # 22 octets
    assert simulate_verify(STRICT_PROFILE, long_serial, store, NOW) == -15
    accepts_long = dataclasses.replace(STRICT_PROFILE, accept_long_serial=True)
    assert simulate_verify(accepts_long, long_serial, store, NOW) == 1


def test_normalization_totality(env):
    # every simulated outcome lands in the 16-code taxonomy, whatever the
    # mutant and whichever profile judges it
    from diffcert.actions import apply, catalog

    cert, store = env
    profiles = [STRICT_PROFILE, *SHIPPED_PROFILES.values()]
    for spec in catalog():
        mutant = apply(cert, spec.id)
        for profile in profiles:
            assert simulate_verify(profile, mutant, store, NOW) in ALL_CODES
    assert simulate_verify(STRICT_PROFILE, b"\xde\xad\xbe\xef", store, NOW) in ALL_CODES


def test_trust_store_round_trip(env):
    _, store = env
    store.add(TrustAnchor(b"\x30\x00", "legacy", version=1, is_root=False))
    again = TrustStore.from_json(store.to_json())
    assert {a.name_der: (a.tag, a.version, a.is_root) for a in again.anchors()} == {
        a.name_der: (a.tag, a.version, a.is_root) for a in store.anchors()
    }


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[]", "not a diffcert trust store"),
        ('{"format": "diffcert-trust", "version": 1}', "no 'anchors' list"),
        ('{"format": "diffcert-trust", "version": 1, "anchors": [{"tag": "t"}]}', "name_b64"),
        # loaded one after the other, the second would replace the first
        (
            '{"format": "diffcert-trust", "version": 1, "anchors": [{"name_b64": "MAA=", "tag": "a"}, {"name_b64": "MAA=", "tag": "b"}]}',
            "name_b64: 'MAA=' appears twice",
        ),
    ],
)
def test_malformed_trust_store_is_a_value_error(text, problem):
    with pytest.raises(ValueError, match=problem):
        TrustStore.from_json(text)


# ---------------------------------------------------------------------------
# Per-profile judgement of the shared facts: stage order, masking and
# the pinned verdicts of a seeded mutant sweep.

def test_legacy_intermediate_chain_error_masks_signature():
    # issued by a v1 intermediate anchor and signed by someone else: a
    # profile that rejects the legacy chain never reaches the signature
    cert = issued(signer_tag="rogue")
    store = TrustStore([TrustAnchor(cert.issuer.der, "acme-root", version=1, is_root=False)])
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == -11
    assert simulate_verify(SHIPPED_PROFILES["mbedtls-like"], cert, store, NOW) == -11
    waived = dataclasses.replace(STRICT_PROFILE, accept_v1v2_intermediate=True)
    assert simulate_verify(waived, cert, store, NOW) == -6
    # the genuine signature passes once the legacy chain is accepted
    genuine = issued()
    assert simulate_verify(waived, genuine, store, NOW) == 1
    assert simulate_verify(STRICT_PROFILE, genuine, store, NOW) == -11


@pytest.mark.parametrize("unknown_first", [True, False])
def test_extension_value_error_as_parse_ordering(env, unknown_first):
    # a malformed basicConstraints plus an unknown critical extension:
    # with ext_value_error_as_parse the malformed value moves ahead of
    # every other stage as the profile's parse code; without it both stay
    # in the extension stage, interleaved in extension order
    _, store = env
    malformed_bc = ExtensionParam(oid.BASIC_CONSTRAINTS, True, b"\x04\x02ab")
    unknown = ExtensionParam(oid.SCT_LIST, True, b"\x04\x02ab")
    exts = (unknown, malformed_bc) if unknown_first else (malformed_bc, unknown)
    cert = issued(extensions=exts)
    first = dataclasses.replace(STRICT_PROFILE, first_error_only=True)
    as_parse = dataclasses.replace(STRICT_PROFILE, ext_value_error_as_parse=True)
    first_as_parse = dataclasses.replace(first, ext_value_error_as_parse=True)
    assert simulate_verify(first, cert, store, NOW) == (-10 if unknown_first else -9)
    assert simulate_verify(STRICT_PROFILE, cert, store, NOW) == -9  # -9 outranks -10
    assert simulate_verify(first_as_parse, cert, store, NOW) == -3
    assert simulate_verify(as_parse, cert, store, NOW) == -3
    other_code = dataclasses.replace(first_as_parse, parse_error_code=-15)
    assert simulate_verify(other_code, cert, store, NOW) == -15
    # ignoring unknown-critical leaves only the malformed value
    ignoring = dataclasses.replace(first, ignore_unknown_critical=True)
    assert simulate_verify(ignoring, cert, store, NOW) == -9
    assert simulate_verify(dataclasses.replace(ignoring, ext_value_error_as_parse=True), cert, store, NOW) == -3


def _sweep_inputs(corpus, rng):
    """Each seed, four random action sequences on it and three bit-flipped
    copies of its DER (mostly strict-parse failures)."""
    for entry in corpus.entries:
        seed = parse_der(entry.der)
        yield entry.der
        for _ in range(4):
            cert = seed
            for _ in range(1 + rng.randrange(6)):
                cert = actions.apply(cert, rng.randrange(actions.CATALOG_SIZE))
            yield encode_der(cert)
        for _ in range(3):
            der = bytearray(entry.der)
            for _ in range(1 + rng.randrange(3)):
                der[rng.randrange(len(der))] ^= 1 << rng.randrange(8)
            yield bytes(der)


# SHA-256 over the six shipped profiles' verdict vectors of the seeded
# sweep below, pinned before the verifier was restructured into one facts
# pass plus a per-profile judgement.  A change meant to move a verdict
# must re-pin it and say why.
SWEEP_DIGEST = "46fbf912a374e8fc0a195bf6bcc12a49d3ddccece8469f0be76ba46bf82cb4d1"


def test_six_profile_verdict_lock():
    corpus = generate_corpus(60, rng_seed=3)
    backends = default_backends(corpus.trust)
    rng = random.Random(5)
    digest = hashlib.sha256()
    for der in _sweep_inputs(corpus, rng):
        for now in (NOW, NOW + datetime.timedelta(hours=13)):
            digest.update(bytes(c & 0xFF for c in verify_all(der, backends, now).codes))
    assert digest.hexdigest() == SWEEP_DIGEST


@functools.lru_cache(maxsize=None)
def _sweep_facts():
    """Per input of the seeded sweep and per lenient flag, its facts and
    the facts of the earlier facts pass."""
    corpus = generate_corpus(60, rng_seed=3)
    return [
        {
            lenient: (verdicts.derive_facts(der, corpus.trust, lenient), reference_derive_facts(der, corpus.trust, lenient))
            for lenient in (True, False)
        }
        for der in _sweep_inputs(corpus, random.Random(5))
    ]


def _assert_judged_as_reference(profile):
    for now in (NOW, NOW + datetime.timedelta(hours=13)):
        window, reference_window = verdicts.validity_window(profile, now), reference_validity_window(profile, now)
        for facts in _sweep_facts():
            for lenient in {True, profile.lenient_parse}:  # a lenient profile makes its panel lenient
                tagged, reference = facts[lenient]
                assert verdicts.judge(profile, tagged, window) == reference_judge(profile, reference, reference_window), (
                    profile,
                    now,
                    reference,
                )


_SWITCHES = tuple(field.name for field in dataclasses.fields(FlawProfile) if type(field.default) is bool)
_SINGLE_SETTING_PROFILES = (
    *(dataclasses.replace(STRICT_PROFILE, **{name: True}) for name in _SWITCHES),
    dataclasses.replace(STRICT_PROFILE, time_linger_seconds=24 * 3600),
    dataclasses.replace(STRICT_PROFILE, local_time_offset_seconds=8 * 3600),
    dataclasses.replace(STRICT_PROFILE, local_time_offset_seconds=-8 * 3600),
    dataclasses.replace(STRICT_PROFILE, parse_error_code=verdicts.OTHER_ERROR),
)


@pytest.mark.parametrize(
    "profile",
    [STRICT_PROFILE, *SHIPPED_PROFILES.values(), *_SINGLE_SETTING_PROFILES],
    ids=["strict", *SHIPPED_PROFILES, *_SWITCHES, "linger", "offset", "negative-offset", "parse-code"],
)
def test_tagged_failures_judge_as_the_reference(profile):
    # filtering the tagged failure list gives each profile the code that
    # the earlier per-switch judgement gave, over the sweep at two clocks
    _assert_judged_as_reference(profile)


@settings(max_examples=60, deadline=None)
@given(
    profile=st.builds(
        FlawProfile,
        time_linger_seconds=st.integers(-10 * ONE_YEAR, 10 * ONE_YEAR),
        local_time_offset_seconds=st.integers(-10 * ONE_YEAR, 10 * ONE_YEAR),
        parse_error_code=st.sampled_from(verdicts.SEVERITY_ORDER),
        **{name: st.booleans() for name in _SWITCHES},
    )
)
def test_random_profiles_judge_as_the_reference(profile):
    # any mix of switches, clock settings and parse code
    _assert_judged_as_reference(profile)


def test_panel_signs_once_per_input(env, monkeypatch):
    # the trust facts are derived once per input, not once per profile
    cert, store = env
    calls = []

    def counting_sign(tbs, tag):
        calls.append(tag)
        return mock_sign(tbs, tag)

    monkeypatch.setattr(verdicts, "mock_sign", counting_sign)
    assert verify_all(cert, default_backends(store), NOW).codes == (1,) * 6
    assert calls == ["acme-root"]


def test_explicit_false_flag_parsed_once(env, monkeypatch):
    # one lenient parse per input: strictness is read from the parsed
    # criticality flags instead of from a failed strict parse
    cert, store = env
    mutant = encode_der(actions.apply(cert, 34))  # basicConstraints with an explicit FALSE flag
    calls = []

    def counting_parse(data, **kwargs):
        calls.append(kwargs)
        return parse_der(data, **kwargs)

    monkeypatch.setattr(verdicts, "parse_der", counting_parse)
    verify_all(mutant, default_backends(store), NOW)
    assert len(calls) == 1
    assert not verdicts.derive_facts(mutant, store, True).strict_ok
    assert verdicts.derive_facts(encode_der(cert), store, True).strict_ok


def test_strict_pair_skips_lenient_only_facts(env, monkeypatch):
    # no profile of the pair parses leniently, so an input that is not
    # strict DER is a parse error for both and its trust facts go unread
    cert, store = env
    mutant = encode_der(actions.apply(cert, 34))  # basicConstraints with an explicit FALSE flag
    pair = [b for b in default_backends(store) if b.id in ("mbedtls-like", "openssl-like")]
    calls = []

    def counting_sign(tbs, tag):
        calls.append(tag)
        return mock_sign(tbs, tag)

    monkeypatch.setattr(verdicts, "mock_sign", counting_sign)
    assert verify_all(mutant, pair, NOW).codes == (-3, -3)
    assert calls == []


def test_verify_all_parses_bytes_only(env, monkeypatch):
    # a certificate in hand is judged from its fields, with its mock
    # signature checked over the fresh TBS; bytes are parsed once
    cert, store = env
    mutant = actions.apply(cert, 13)  # shift notAfter one year later: the TBS changes
    calls = []

    def counting_parse(data, **kwargs):
        calls.append(kwargs)
        return parse_der(data, **kwargs)

    monkeypatch.setattr(verdicts, "parse_der", counting_parse)
    from_fields = verify_all(mutant, default_backends(store), NOW)
    assert calls == []
    assert (verdicts.SIGNATURE_ERROR, None, True) in verdicts.derive_facts(mutant, store, True).failures
    assert calls == []
    from_bytes = verify_all(encode_der(mutant), default_backends(store), NOW)
    assert len(calls) == 1
    assert from_fields == from_bytes


@functools.lru_cache(maxsize=None)
def _parsed_corpus(rng_seed):
    corpus = generate_corpus(6, rng_seed)
    return [parse_der(entry.der) for entry in corpus.entries], corpus.trust, default_backends(corpus.trust)


def _is_fact_value(value):
    return type(value) in (bool, int) or (
        type(value) is tuple
        and all(type(code) is int and type(switch) in (str, type(None)) and type(counts) is bool for code, switch, counts in value)
    )


@settings(max_examples=60, deadline=None)
@given(
    rng_seed=st.integers(0, 3),
    walks=st.lists(
        st.tuples(st.integers(0, 5), st.lists(st.integers(0, actions.CATALOG_SIZE - 1), max_size=10)), min_size=2, max_size=8
    ),
)
def test_equal_facts_give_equal_verdicts(rng_seed, walks):
    # judging reads nothing but an input's facts, so the panel memo keyed
    # by them is exact: inputs with equal facts get equal vectors from
    # fresh panels, the facts are plain values, and a mutant's fields
    # give the facts its bytes give
    seeds, trust, backends = _parsed_corpus(rng_seed)
    vector_of = {}
    for seed_index, trace in walks:
        mutant = seeds[seed_index]
        for action in trace:
            mutant = actions.apply(mutant, action)
        der = encode_der(mutant)
        for lenient in (True, False):
            assert verdicts.derive_facts(mutant, trust, lenient) == verdicts.derive_facts(der, trust, lenient)
        facts = verdicts.derive_facts(mutant, trust, True)
        assert all(_is_fact_value(value) for value in facts)
        codes = verify_all(der, backends, NOW).codes
        assert vector_of.setdefault(facts, codes) == codes


# ---------------------------------------------------------------------------
# Every configuration that loads also runs: a drawn backends file and
# trust store is refused with one CLI error line, or its panel judges the
# whole sweep at two clocks.

# text that an operating system, a format string or UTF-8 may refuse
_EDGE_TEXT = st.text(st.one_of(st.sampled_from("a{}\x00\ud800"), st.characters(exclude_categories=())), max_size=4)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(ALL_CODES),
    st.integers(),
    st.sampled_from([0, -1, 10**400]),
    st.floats(),  # json writes and reads NaN and Infinity
    _EDGE_TEXT,
    st.lists(st.integers(), max_size=2),
)


def _mostly(typed, odds=10):
    """``typed``, or any JSON value about once in ``odds`` draws (not on
    0, which Hypothesis draws more often than its share)."""
    return st.integers(0, odds - 1).flatmap(lambda roll: _JSON_VALUES if roll == 7 else typed)


def _profile_value(field):
    if field.name == "parse_error_code":
        return _mostly(st.sampled_from(ALL_CODES), 40)
    return _mostly(st.booleans() if type(field.default) is bool else st.integers(), 40)


_PROFILES = _mostly(
    st.one_of(
        st.sampled_from([*SHIPPED_PROFILES, "gnutls-lik"]),
        st.fixed_dictionaries(
            {}, optional={"no_such_switch": st.booleans(), **{field.name: _profile_value(field) for field in dataclasses.fields(FlawProfile)}}
        ),
    )
)
_PATTERN = st.fixed_dictionaries(
    {"code": _mostly(st.sampled_from(ALL_CODES))},
    optional={
        "match": _mostly(st.sampled_from(["ok", "a.c", "(", "[x", ""])),
        "regex": _mostly(st.booleans()),
        "exit_status": _mostly(st.integers(-1, 2)),
    },
)
_EXTERNAL = st.fixed_dictionaries(
    {
        "kind": st.just("external"),
        "command": _mostly(
            st.tuples(
                st.sampled_from(["true", "true", "false", "no-such-verifier"]),
                st.lists(_mostly(st.sampled_from(["{cert}", "{trust}", "-v", "-CAfile"])), max_size=3),
            ).map(lambda drawn: [drawn[0], *drawn[1]])
        ),
        "patterns": _mostly(st.lists(_PATTERN, max_size=2).map(lambda rules: [*rules, {"code": -15}])),
    },
    optional={
        "timeout": _mostly(st.sampled_from([10, 2.5, 0, -1.5, float("nan"), float("inf"), 1e7])),
        "trust": _mostly(_EDGE_TEXT),
    },
)
_SIMULATED = st.fixed_dictionaries({"kind": st.just("simulated")}, optional={"profile": _PROFILES})
_ANCHOR_VALUES = {
    "name_b64": _mostly(st.binary(max_size=6).map(lambda raw: base64.b64encode(raw).decode())),
    "tag": _mostly(_EDGE_TEXT),
    "version": _mostly(st.integers(-1, 4)),
    "is_root": _mostly(st.booleans()),
}


@functools.lru_cache(maxsize=None)
def _sweep_parsed():
    """The sweep's inputs, parsed once where a lenient parse takes them
    (`verify_all` judges a certificate as the bytes it came from), and the
    trust document of its corpus."""
    corpus = generate_corpus(60, rng_seed=3)
    inputs = []
    for der in _sweep_inputs(corpus, random.Random(5)):
        try:
            inputs.append(parse_der(der, lenient=True))
        except ValueError:  # MalformedDer and UnsupportedStructure
            inputs.append(der)
    return tuple(inputs), corpus.trust.to_json()


@st.composite
def _backends_document(draw):
    entries = draw(st.lists(_mostly(st.one_of(_SIMULATED, _SIMULATED, _EXTERNAL)), min_size=2, max_size=4))
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            entry["id"] = draw(_mostly(st.just(f"b{i}")))
    return draw(_mostly(st.just({"format": "diffcert-backends", "version": 1, "backends": entries})))


@st.composite
def _trust_document(draw):
    """The sweep's trust document with a few anchor fields edited or
    dropped and a few anchors added."""
    doc = json.loads(_sweep_parsed()[1])
    for _ in range(draw(st.integers(0, 3))):
        anchor = draw(st.sampled_from(doc["anchors"]))
        key = draw(st.sampled_from(sorted(_ANCHOR_VALUES)))
        if draw(st.integers(0, 4)) == 2:
            anchor.pop(key, None)
        else:
            anchor[key] = draw(_ANCHOR_VALUES[key])
    doc["anchors"] += draw(st.lists(st.fixed_dictionaries(_ANCHOR_VALUES), max_size=2))
    return draw(_mostly(st.just(doc)))


@settings(max_examples=150, deadline=None)
@given(
    backends_doc=_backends_document(),
    trust_doc=_trust_document(),
    outcomes=st.lists(st.tuples(st.integers(-1, 2), st.sampled_from(["", "ok", "abc", "error"])), min_size=1, max_size=3),
)
def test_every_loaded_configuration_runs(backends_doc, trust_doc, outcomes):
    # refused as the CLI refuses a file (one error line, before any
    # verification), or every verification of the sweep returns a code
    inputs, _ = _sweep_parsed()
    with tempfile.TemporaryDirectory() as scratch:
        backends_path, trust_path = Path(scratch, "backends.json"), Path(scratch, "trust.json")
        backends_path.write_text(json.dumps(backends_doc))
        trust_path.write_text(json.dumps(trust_doc))
        try:
            backends = cli._load_backends({"backends": str(backends_path)}, cli._load_trust(str(trust_path)))
            panels = [Panel(backends, now) for now in (NOW, NOW + datetime.timedelta(hours=13))]
        except (cli.CliError, InsufficientBackends) as refused:
            assert "\n" not in str(refused)
            return
    # an external verifier runs for real on the first input; for the rest
    # it answers with the drawn outcomes, so its pattern table meets them all
    replies = itertools.cycle(outcomes)
    fake_run = lambda argv, **kwargs: subprocess.CompletedProcess(argv, *next(replies), "")  # noqa: E731
    for panel in panels:
        assert set(verify_all(inputs[0], panel).codes) <= set(ALL_CODES)
        with mock.patch.object(subprocess, "run", fake_run):
            for data in inputs[1:]:
                assert set(verify_all(data, panel).codes) <= set(ALL_CODES)
