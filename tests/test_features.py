"""Feature extraction tests: the 101-slot contract, the frozen golden
vector (cross-checked by a straight-line reference implementation), time
comparison and the per-type value classifiers."""

import dataclasses
import datetime as dt
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from diffcert import actions, asn1, certs, features, verdicts, x509oids as oid
from diffcert.certs import REFERENCE_TIME, SeedParams, TimeValue, build_synthetic, classify_extension_value, encode_der
from diffcert.features import (
    EXTENSION_BLOCK_START,
    FEATURE_LENGTH,
    TRACKED_EXTENSIONS,
    extract,
)

from verdict_helpers import default_backends

# Frozen once from the reference implementation below; the layout is a
# repo constant and must never drift.
GOLDEN_VECTOR = (
    [3, 3, 4, -1, 1, 2, 1, 0]
    + [1, 1, 2]  # basicConstraints: present, critical, CA-false class
    + [1, 1, 2]  # keyUsage: present, critical, non-certsign class
    + [1, 0, 1]  # extKeyUsage: present, serverAuth class
    + [1, 0, 1]  # subjectAltName: present, dNSName class
    + [1, 0, 0] * 7  # AKI..SCT existence-mode targets
    + [0, 0, 0] * 20  # untargeted tracked types absent
)


def reference_extract(cert, now):
    """Independent slot-by-slot construction used to justify the frozen value."""
    countries = list(features.DEFAULT_COUNTRIES)
    sig_algs = list(features.DEFAULT_SIG_ALGS)
    vec = [0] * 101
    vec[0] = cert.version
    for slot, code in ((1, cert.issuer.country), (2, cert.subject.country)):
        vec[slot] = countries.index(code.upper()) + 1 if code and code.upper() in countries else 0
    for slot, stamp in ((3, cert.not_before.at), (4, cert.not_after.at)):
        a, b = int(stamp.timestamp()), int(now.timestamp())
        vec[slot] = -1 if a < b else (1 if a > b else 0)
    vec[5] = cert.public_key_info.bit_length // 1024
    alg = cert.signature_algorithm.oid
    vec[6] = sig_algs.index(alg) + 1 if alg in sig_algs else 0
    if cert.serial == 0:
        vec[7] = 1
    elif len(cert.serial_raw) > 20:
        vec[7] = 3
    elif cert.serial < 0:
        vec[7] = 2
    order = list(TRACKED_EXTENSIONS)
    for ext in cert.extensions:
        if ext.oid not in order:
            continue
        base = 8 + 3 * order.index(ext.oid)
        vec[base] = 1
        vec[base + 1] = int(ext.critical)
        vec[base + 2] = classify_extension_value(ext.oid, ext.value)
    return vec


def test_golden_vector(default_cert, now):
    got = extract(default_cert)
    assert list(got) == GOLDEN_VECTOR
    assert reference_extract(default_cert, now) == GOLDEN_VECTOR


def test_layout_constants():
    assert FEATURE_LENGTH == 101
    assert EXTENSION_BLOCK_START == 8
    assert len(TRACKED_EXTENSIONS) == 31
    assert 8 + 3 * 31 == 101


def test_vector_always_101(default_cert):
    for rng_seed in range(5):
        cert = build_synthetic(SeedParams(), rng_seed)
        assert len(extract(cert)) == 101
    bare = build_synthetic(SeedParams(version=1, extensions=()), 1)
    assert len(extract(bare)) == 101


def test_extract_pure(default_cert):
    assert extract(default_cert) == extract(default_cert)


def test_version_slot_is_raw_value():
    v4 = build_synthetic(SeedParams(version=4), 3)
    assert extract(v4)[0] == 4


def test_time_slots(default_cert):
    vec = extract(default_cert)
    assert vec[3] == -1  # not_before one year in the past
    assert vec[4] == 1
    past = SeedParams(not_before_offset=-2 * 365 * 86400, not_after_offset=-365 * 86400)
    vec = extract(build_synthetic(past, 3))
    assert vec[3] == -1 and vec[4] == -1


def test_unknown_labels_map_to_zero():
    params = SeedParams(
        issuer_country="XX", subject_country="QQ", sig_alg_oid="1.2.840.113549.1.1.14"
    )
    vec = extract(build_synthetic(params, 7))
    assert vec[1] == 0 and vec[2] == 0 and vec[6] == 0
    assert {"XX", "QQ"}.isdisjoint(features.COUNTRY_LABELS)
    assert "1.2.840.113549.1.1.14" not in features.SIG_ALG_LABELS


def test_country_labels_ignore_case():
    params = SeedParams(issuer_country="de", subject_country="Us")
    vec = extract(build_synthetic(params, 7))
    assert (vec[1], vec[2]) == (features.COUNTRY_LABELS["DE"], features.COUNTRY_LABELS["US"]) == (3, 1)


def test_absent_country_is_zero():
    params = SeedParams(issuer_country=None, subject_country=None)
    vec = extract(build_synthetic(params, 3))
    assert vec[1] == 0 and vec[2] == 0


def test_untracked_extension_ignored():
    from diffcert.certs import ExtensionParam

    base = build_synthetic(SeedParams(), 7)
    extra = SeedParams(
        extensions=SeedParams().extensions + (ExtensionParam("1.3.6.1.4.1.31337.9", False, b"\x04\x01x"),),
    )
    with_private = build_synthetic(extra, 7)
    assert extract(base) == extract(with_private)


def compare_time(t: dt.datetime, now: dt.datetime) -> int:
    """-1/0/+1 comparison at one-second granularity: the oracle of the
    validity slots 3 and 4."""
    difference = int(t.timestamp()) - int(now.timestamp())
    return (difference > 0) - (difference < 0)


def test_compare_time():
    t = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)
    later = dt.datetime(2099, 1, 1, tzinfo=dt.timezone.utc)
    assert compare_time(t, later) == -1
    assert compare_time(t, t) == 0
    assert compare_time(later, t) == 1
    # sub-second differences collapse to equality
    assert compare_time(t, t + dt.timedelta(microseconds=400)) == 0


_VALIDITY_PROBE = build_synthetic(SeedParams(), 7)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
def test_compare_time_sign_property(a, b):
    ta = dt.datetime.fromtimestamp(a, tz=dt.timezone.utc)
    tb = dt.datetime.fromtimestamp(b, tz=dt.timezone.utc)
    expected = 0 if a == b else (-1 if a < b else 1)
    assert compare_time(ta, tb) == expected
    # the slots compare with REFERENCE_TIME: put both bounds a - b seconds from it
    bound = TimeValue(REFERENCE_TIME + dt.timedelta(seconds=a - b), asn1.GENERALIZED_TIME)
    assert compare_time(bound.at, REFERENCE_TIME) == expected
    cert = dataclasses.replace(_VALIDITY_PROBE, not_before=bound, not_after=bound)
    assert extract(cert)[3:5] == (expected, expected)


# ---------------------------------------------------------------------------
# Value classifiers

def test_basic_constraints_classes():
    ca_true = bytes.fromhex("30030101ff")
    ca_false_empty = bytes.fromhex("3000")
    assert classify_extension_value(oid.BASIC_CONSTRAINTS, ca_true) == 1
    assert classify_extension_value(oid.BASIC_CONSTRAINTS, ca_false_empty) == 2
    assert classify_extension_value(oid.BASIC_CONSTRAINTS, b"\x30\x05\x01") == 3


def test_key_usage_classes():
    digsig = bytes.fromhex("030205a0")
    certsign = bytes.fromhex("03020106")
    empty_bits = bytes.fromhex("030100")
    assert classify_extension_value(oid.KEY_USAGE, digsig) == 2
    assert classify_extension_value(oid.KEY_USAGE, certsign) == 1
    assert classify_extension_value(oid.KEY_USAGE, empty_bits) == 3  # empty bit string
    assert classify_extension_value(oid.KEY_USAGE, b"\xff") == 3


def test_eku_classes():
    server = asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.EKU_SERVER_AUTH)))
    client = asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.EKU_CLIENT_AUTH)))
    assert classify_extension_value(oid.EXT_KEY_USAGE, server) == 1
    assert classify_extension_value(oid.EXT_KEY_USAGE, client) == 2
    assert classify_extension_value(oid.EXT_KEY_USAGE, b"\x30\x00") == 3


_SERVER_AUTH = asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.OBJECT_IDENTIFIER, asn1.encode_oid_content(oid.EKU_SERVER_AUTH)))


@pytest.mark.parametrize(
    "ext_oid, value, expected",
    [
        (oid.BASIC_CONSTRAINTS, bytes.fromhex("300000"), 3),  # trailing bytes
        (oid.BASIC_CONSTRAINTS, bytes.fromhex("3003020100"), 2),  # pathLen without cA: cA defaults to FALSE
        (oid.BASIC_CONSTRAINTS, bytes.fromhex("0400"), 3),  # not a SEQUENCE
        (oid.KEY_USAGE, bytes.fromhex("030205a000"), 3),  # trailing bytes
        (oid.KEY_USAGE, bytes.fromhex("03020000"), 3),  # no bit set
        (oid.KEY_USAGE, bytes.fromhex("030208a0"), 3),  # pad count above 7
        (oid.KEY_USAGE, bytes.fromhex("0400"), 3),  # not a BIT STRING
        (oid.EXT_KEY_USAGE, _SERVER_AUTH + b"\x00", 3),  # trailing bytes
        (oid.EXT_KEY_USAGE, bytes.fromhex("3003040100"), 3),  # a purpose that is not an OID
        (oid.EXT_KEY_USAGE, bytes.fromhex("3003060180"), 3),  # a purpose OID that does not decode
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("3003820161") + b"\x00", 3),  # trailing bytes
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("30020400"), 3),  # a universal tag, not a GeneralName
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("3000"), 3),  # no name
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("30028205"), 3),  # a name running past the value
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("3003860161"), 2),  # a URI alone
        (oid.SUBJECT_ALT_NAME, bytes.fromhex("3006860161820161"), 1),  # a URI and a dNSName
    ],
)
def test_value_class_table(ext_oid, value, expected):
    assert classify_extension_value(ext_oid, value) == expected
    assert certs.Extension(ext_oid, False, value).malformed == (expected == 3)


def test_existence_mode_value_class_is_zero():
    assert classify_extension_value(oid.SUBJECT_KEY_ID, b"\x04\x02ab") == 0
    assert classify_extension_value(oid.SUBJECT_KEY_ID, b"garbage") == 0


def test_extension_facts_derived_once_per_instance(monkeypatch, now):
    # one seed visit as the campaign makes it: the seed and ten mutants,
    # each judged by the six-profile panel and featurized; a mutant shares
    # every extension its action did not replace with its parent.  Parsed
    # certificates and parts are interned for the process, so the caches
    # are emptied first: the seed's extensions are then this test's own,
    # classified here
    for cache in (certs._certificate, certs._algorithm, certs._name, certs._time, certs._extension):
        cache.cache_clear()
    calls = Counter()

    def counting(key, fn):
        def wrapper(value):
            calls[key] += 1
            return fn(value)

        return wrapper

    for ext_oid, classifier in list(certs._VALUE_CLASSIFIERS.items()):
        monkeypatch.setitem(certs._VALUE_CLASSIFIERS, ext_oid, counting(ext_oid, classifier))
    monkeypatch.setattr(asn1, "der_well_formed", counting("der_well_formed", asn1.der_well_formed))

    seed = build_synthetic(SeedParams(), 7)
    backends = default_backends(verdicts.TrustStore([verdicts.TrustAnchor(seed.issuer.der, "acme-root")]))
    visit = [seed]
    verdicts.verify_all(seed, backends, now)
    extract(seed)
    # version, issuer country, then extension edits of both extraction
    # modes, a validity shift, the serial and an explicit FALSE flag
    for action in (3, 22, 32, 40, 9, 47, 53, 60, 4, 64):
        mutant = actions.apply(visit[-1], action, now=now)
        encode_der(mutant)
        verdicts.verify_all(mutant, backends, now)
        extract(mutant)
        visit.append(mutant)

    instances = {id(ext): ext for cert in visit for ext in cert.extensions}.values()
    for ext_oid in certs._VALUE_CLASSIFIERS:
        assert 0 < calls[ext_oid] <= sum(ext.oid == ext_oid for ext in instances), ext_oid
    checked = [ext for ext in instances if ext.oid in verdicts.VALIDATOR_KNOWN_EXTENSIONS and ext.oid not in certs._VALUE_CLASSIFIERS]
    assert 0 < calls["der_well_formed"] <= len(checked)
