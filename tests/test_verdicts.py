"""Differential-testing tests: the taxonomy fixture suite for the strict
validator, profile monotonicity, discrepancy/reward semantics and the
external subprocess adapters."""

import dataclasses
import datetime
import hashlib
import random
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diffcert import actions, asn1, features, verdicts, x509oids as oid
from diffcert.certs import (
    REFERENCE_TIME,
    ExtensionParam,
    TimeValue,
    build_synthetic,
    default_params,
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
    PatternRule,
    SimulatedBackend,
    TrustAnchor,
    TrustStore,
    VerdictVector,
    default_backends,
    external_verify,
    is_discrepancy,
    load_backend_specs,
    reward_delta,
    reward_primary,
    simulate_verify,
    verify_all,
)

NOW = REFERENCE_TIME
ONE_YEAR = 365 * 24 * 3600


def issued(signer_tag="acme-root", **kwargs):
    return build_synthetic(dataclasses.replace(default_params(), signer_tag=signer_tag, **kwargs), 7)


@pytest.fixture()
def env():
    """An issued fixture plus the trust store that knows its issuer."""
    cert = issued()
    store = TrustStore()
    store.add(TrustAnchor(cert.issuer_der(), "acme-root"))
    return cert, store


# ---------------------------------------------------------------------------
# Taxonomy conformance suite: one single-defect fixture per code the
# strict validator can reach (-13 is external-only and unreachable here).

def taxonomy_fixtures():
    base = default_params()
    store = TrustStore()
    store.add(TrustAnchor(issued().issuer_der(), "acme-root"))
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
    legacy_store.add(TrustAnchor(legacy.issuer_der(), "legacy", version=1, is_root=False))
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
    registry = features.default_registry()
    for action in range(actions.CATALOG_SIZE):
        mutant = actions.apply(cert, action)
        assert len(features.extract(mutant, NOW, registry)) == features.FEATURE_LENGTH
        assert verify_all(mutant, backends, NOW).codes == verify_all(encode_der(mutant), backends, NOW).codes


def test_version_flaw_switches(env):
    _, store = env
    v2 = actions.apply(issued(), 1)  # v2 with v3 extensions, anchored? no: issued -> stale sig
    # use an anchored cert so the version check is the deciding one
    anchored = build_synthetic(
        dataclasses.replace(
            default_params(),
            issuer_common_name="a.test",
            issuer_country="US",
            subject_common_name="a.test",
            subject_country="US",
            signer_tag="a",
        ),
        3,
    )
    astore = TrustStore()
    astore.add(TrustAnchor(anchored.subject_der(), "a"))
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
        extensions=default_params().extensions + (ExtensionParam(oid.SCT_LIST, True, b"\x04\x02ab"),),
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


def test_connection_error_is_neither_accept_nor_reject():
    # an external verifier that timed out says nothing about the certificate
    assert not is_discrepancy((1, -13))
    assert not is_discrepancy((1, 1, -13))
    assert is_discrepancy((1, -13, -4))
    assert reward_primary((1, -13)) == -1
    assert reward_primary((1, -13, -4)) == 100


def test_reward_primary_examples():
    assert reward_primary([1, -14, -6, 1, 1, 1]) == 100
    assert reward_primary([1, 1, 1, 1, 1, 1]) == -1
    assert reward_primary([-2, -2, -2, -2, -2, -2]) == -1


def test_reward_delta_examples():
    before = [1, 1, 1, 1, 1, 1]
    after = [1, -14, -6, 1, 1, 1]
    # category counts 1 -> 3 per the distinct-verdict definition
    assert len(set(before)) == 1 and len(set(after)) == 3
    assert reward_delta(before, after) == 2
    assert reward_delta(after, after) == 0
    assert reward_delta(after, before) == -2


codes_strategy = st.lists(st.sampled_from(ALL_CODES), min_size=2, max_size=8)


@settings(max_examples=300)
@given(codes=codes_strategy)
def test_discrepancy_predicate_property(codes):
    expected = (1 in codes) and any(c not in (1, -13) for c in codes)
    assert is_discrepancy(codes) == expected
    assert (reward_primary(codes) == 100) == expected


@settings(max_examples=200)
@given(before=codes_strategy, after=codes_strategy)
def test_reward_delta_property(before, after):
    assert reward_delta(before, after) == len(set(after) - {-13}) - len(set(before) - {-13})


def test_connection_error_is_no_delta_category():
    # a timed-out external verifier adds no verdict category
    assert reward_delta((1, 1), (1, -13)) == 0
    assert reward_delta((1, -13), (1, -2)) == 1
    assert reward_delta((-4, -13), (-4, -5)) == 1


# ---------------------------------------------------------------------------
# External backend adapters

def _script_backend(script: str, patterns, timeout=10.0, command_prefix=None):
    command = tuple(command_prefix or (sys.executable, "-c", script, "{cert}", "{trust}"))
    return ExternalBackend("stub", command, tuple(patterns), timeout=timeout)


CATCH_ALL = PatternRule(code=-15)


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


def test_bind_backends_drops_missing_external(env):
    cert, store = env
    specs = [
        SimulatedBackend("sim-a", STRICT_PROFILE),
        SimulatedBackend("sim-b", SHIPPED_PROFILES["matrixssl-like"]),
        ExternalBackend("gone", ("/nonexistent/verifier", "{cert}"), (CATCH_ALL,)),
    ]
    bound = verdicts.bind_backends(specs, store)
    assert [b.id for b in bound] == ["sim-a", "sim-b"]
    v = verify_all(cert, bound, NOW)
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


# ---------------------------------------------------------------------------
# Per-profile judgement of the shared facts: stage order, masking and
# the pinned verdicts of a seeded mutant sweep.

def test_legacy_intermediate_chain_error_masks_signature():
    # issued by a v1 intermediate anchor and signed by someone else: a
    # profile that rejects the legacy chain never reaches the signature
    cert = issued(signer_tag="rogue")
    store = TrustStore([TrustAnchor(cert.issuer_der(), "acme-root", version=1, is_root=False)])
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
    assert verdicts.derive_facts(mutant, store, True).trust_code == verdicts.SIGNATURE_ERROR
    assert calls == []
    from_bytes = verify_all(encode_der(mutant), default_backends(store), NOW)
    assert len(calls) == 1
    assert from_fields == from_bytes
