"""Mutation catalog tests: the 86-action contract, totality, persistence,
determinism, byte-change coverage on the reference fixture and trace
replay."""

import dataclasses
import hashlib
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffcert import actions, features, verdicts
from diffcert.actions import (
    CATALOG_SIZE,
    Family,
    InvalidTrace,
    apply,
    catalog,
    replay,
)
from diffcert.certs import REFERENCE_TIME, build_synthetic, default_params, encode_der, parse_der
from diffcert.corpus import generate_corpus
from diffcert.verdicts import TrustAnchor, TrustStore


def test_catalog_size_and_ids():
    cat = catalog()
    assert len(cat) == 86
    assert [spec.id for spec in cat] == list(range(86))


def test_catalog_family_composition():
    sizes = {}
    for spec in catalog():
        sizes[spec.family] = sizes.get(spec.family, 0) + 1
    assert sizes == {
        Family.VERSION: 4,
        Family.SERIAL: 5,
        Family.VALIDITY: 7,
        Family.SIG_ALG: 6,
        Family.NAME: 7,
        Family.KEY: 2,
        Family.EXTENSION: 55,
    }
    assert sum(sizes.values()) == 86


def test_catalog_ordering_constants():
    cat = catalog()
    assert cat[0].description == "set version to 1"
    assert cat[3].description == "set version to 4"
    assert cat[28].description == "copy the issuer name into the subject"
    assert cat[31].target is not None  # first extension action


def test_apply_totality_and_reencode(default_cert):
    for spec in catalog():
        mutant = apply(default_cert, spec.id)
        encoded = encode_der(mutant)
        assert isinstance(encoded, bytes) and encoded


def test_apply_never_mutates_input(default_cert):
    before = encode_der(default_cert)
    for spec in catalog():
        apply(default_cert, spec.id)
    assert encode_der(default_cert) == before


def test_apply_deterministic(default_cert):
    for spec in catalog():
        a = encode_der(apply(default_cert, spec.id))
        b = encode_der(apply(default_cert, spec.id))
        assert a == b, spec.description


# Actions that leave the default reference fixture's DER bytes unchanged:
# re-writing the version it already has, and marking already-critical
# extensions critical.  Everything else must change bytes on that fixture.
VACUOUS_ON_DEFAULT_FIXTURE = frozenset({2, 33, 38})

# Actions that change the default fixture's bytes without moving any
# feature slot.  Structural, not accidental: existence-mode extension
# types expose no value slot, so value rewrites there are invisible; the
# explicit-FALSE criticality probe keeps the flag's value; serial 1 stays
# in the positive class; year shifts that do not cross the reference
# clock keep the comparison sign.
FEATURE_INVARIANT_ON_DEFAULT_FIXTURE = frozenset(
    {6, 9, 13}
    | {44, 49, 54, 59, 64, 69, 74, 79, 84}  # clear-critical on non-critical types
    | {52, 57, 62, 67, 72, 77, 82}  # add-default on existence-mode types
    | {55, 60, 65, 70, 75, 80, 85}  # corrupt on existence-mode types
)


def test_byte_change_coverage(default_cert):
    base = encode_der(default_cert)
    vacuous = {spec.id for spec in catalog() if encode_der(apply(default_cert, spec.id)) == base}
    assert vacuous == set(VACUOUS_ON_DEFAULT_FIXTURE)
    assert 86 - len(vacuous) >= 80


def test_feature_change_coverage(default_cert, registry, now):
    base_vec = features.extract(default_cert, now, registry)
    invariant = set()
    for spec in catalog():
        mutant = apply(default_cert, spec.id, now=now)
        if features.extract(mutant, now, registry) == base_vec and encode_der(mutant) != encode_der(default_cert):
            invariant.add(spec.id)
    assert invariant == set(FEATURE_INVARIANT_ON_DEFAULT_FIXTURE)


def test_set_version_semantics(default_cert):
    mutant = apply(default_cert, 3)
    assert mutant.version == 4
    assert mutant.extensions == default_cert.extensions
    # re-writing the current value is a vacuous no-op
    same = apply(default_cert, 2)
    assert encode_der(same) == encode_der(default_cert)


def test_version_wire_value_after_mutation(default_cert):
    from diffcert import asn1

    reparsed = parse_der(encode_der(apply(default_cert, 3)))
    assert reparsed.version == 4
    tbs = reparsed.encoding[0]
    _, start, stop, _ = asn1.read_tlv(tbs, 0, len(tbs))
    vstart, vstop, _ = asn1.read_tlv(tbs, start, stop)[1:]
    istart, istop, _ = asn1.read_tlv(tbs, vstart, vstop)[1:]
    assert tbs[istart:istop] == b"\x03"  # human 4 -> wire 3
    # the stale signature is carried over unchanged
    assert reparsed.signature_value == default_cert.signature_value


def test_serial_actions(default_cert):
    assert apply(default_cert, 4).serial == -default_cert.serial
    assert apply(default_cert, 5).serial == 0
    assert apply(default_cert, 6).serial == 1
    assert len(apply(default_cert, 7).serial_raw) == 21
    padded = apply(default_cert, 8)
    assert len(padded.serial_raw) == 37
    assert padded.serial > 0
    # padded serials survive a strict re-parse
    assert parse_der(encode_der(padded)).serial_raw == padded.serial_raw


def test_validity_actions(default_cert, now):
    assert apply(default_cert, 9).not_before.at.year == default_cert.not_before.at.year - 1
    assert apply(default_cert, 11, now=now).not_before.at == now
    swapped = apply(default_cert, 15)
    assert swapped.not_before == default_cert.not_after
    assert swapped.not_after == default_cert.not_before


def test_time_tag_rule_after_shift():
    from diffcert import asn1

    params = dataclasses.replace(default_params(), not_after_offset=24 * 365 * 86400)
    cert = build_synthetic(params, 3)  # notAfter 2049, still UTCTime
    assert cert.not_after.tag == asn1.UTC_TIME
    shifted = apply(cert, 13)  # +1y -> 2050, outside the UTCTime window
    reparsed = parse_der(encode_der(shifted))
    assert reparsed.not_after.tag == asn1.GENERALIZED_TIME
    assert reparsed.not_after.at.year == 2050


def test_name_actions(default_cert):
    assert apply(default_cert, 22).issuer.country() == "US"
    assert apply(default_cert, 24).issuer.country() is None
    assert apply(default_cert, 26).subject.country() == "CN"
    copied = apply(default_cert, 28)
    assert copied.subject == default_cert.issuer


def test_key_actions(default_cert):
    assert apply(default_cert, 29).public_key_info.bit_length == 1024
    assert apply(default_cert, 30).public_key_info.bit_length == 4096


def test_extension_delete_and_add(default_cert):
    from diffcert import x509oids as oid

    deleted = apply(default_cert, 31)  # delete basicConstraints
    assert deleted.extension(oid.BASIC_CONSTRAINTS) is None
    restored = apply(deleted, 32)  # add-with-default
    ext = restored.extension(oid.BASIC_CONSTRAINTS)
    assert ext is not None and ext.value == actions.ADD_DEFAULT_VALUES[oid.BASIC_CONSTRAINTS]
    # delete on an absent extension degrades to a no-op
    again = apply(deleted, 31)
    assert encode_der(again) == encode_der(deleted)


def test_clear_critical_writes_explicit_false(default_cert):
    from diffcert import x509oids as oid
    from diffcert.certs import MalformedDer

    cleared = apply(default_cert, 34)  # clear-critical basicConstraints
    ext = cleared.extension(oid.BASIC_CONSTRAINTS)
    assert not ext.critical and ext.critical_encoded
    encoded = encode_der(cleared)
    with pytest.raises(MalformedDer):
        parse_der(encoded)  # strict parsing rejects the encoded default
    lenient = parse_der(encoded, lenient=True)
    assert not lenient.extension(oid.BASIC_CONSTRAINTS).critical
    # and the lenient parse still round-trips byte-exactly
    assert encode_der(parse_der(encoded, lenient=True)) == encoded


def test_corrupt_value(default_cert):
    from diffcert import x509oids as oid

    corrupted = apply(default_cert, 35)
    assert corrupted.extension(oid.BASIC_CONSTRAINTS).value == actions.CORRUPT_VALUES[oid.BASIC_CONSTRAINTS]
    assert features.classify_extension_value(oid.BASIC_CONSTRAINTS, True, corrupted.extension(oid.BASIC_CONSTRAINTS).value) == 3


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.integers(min_value=0, max_value=85), min_size=0, max_size=10))
def test_replay_matches_sequential_apply(ids):
    cert = build_synthetic(default_params(), 7)
    expected = cert
    for action_id in ids:
        expected = apply(expected, action_id)
    got = replay(cert, tuple(ids))
    assert encode_der(got) == encode_der(expected)


def test_replay_empty_trace_is_identity(default_cert):
    assert encode_der(replay(default_cert, ())) == encode_der(default_cert)


def test_trace_bounds():
    seed = build_synthetic(default_params(), 7)
    with pytest.raises(InvalidTrace):
        replay(seed, tuple(range(11)))
    with pytest.raises(InvalidTrace):
        replay(seed, (86,))
    with pytest.raises(InvalidTrace):
        apply(seed, 86)
    replay(seed, tuple(range(10)))  # exactly 10 is legal


def awkward_fixtures():
    base = default_params()
    return [
        build_synthetic(base, 7),
        build_synthetic(dataclasses.replace(base, version=1, extensions=()), 1),
        build_synthetic(dataclasses.replace(base, version=2, extensions=()), 2),
        build_synthetic(dataclasses.replace(base, use_generalized_time=True, key_bits=512), 3),
        build_synthetic(
            dataclasses.replace(base, subject_common_name=None, subject_country=None, issuer_country=None), 4
        ),
        build_synthetic(dataclasses.replace(base, serial=0, not_after_offset=-1000), 5),
    ]


def test_apply_total_over_awkward_fixtures():
    # every action re-encodes on every fixture shape, including bare v1/v2,
    # empty names and degenerate serials
    for cert in awkward_fixtures():
        for spec in catalog():
            encoded = encode_der(apply(cert, spec.id))
            assert encoded
            # and a second application of the same action still encodes
            assert encode_der(apply(apply(cert, spec.id), spec.id))


# SHA-256 over every action's output on every awkward fixture, pinned
# before the four extension edits were folded into one upsert primitive.
# The extension-free v1/v2 fixtures exercise the append branch of every
# extension edit; the others exercise the edit-in-place branch.
AWKWARD_APPLY_DIGEST = "0059131411df9ca5fde58e9c73cac9c7d4f980a8564275b8648e57c14ee7afd1"


def test_awkward_fixture_outputs_locked():
    digest = hashlib.sha256()
    for cert in awkward_fixtures():
        for spec in catalog():
            der = encode_der(apply(cert, spec.id))
            digest.update(len(der).to_bytes(4, "big"))
            digest.update(der)
    assert digest.hexdigest() == AWKWARD_APPLY_DIGEST


# The codec round trip is what lets the verifier judge a mutant from its
# fields instead of re-parsing its encoding: parsing the bytes of any
# reachable mutant must give back the mutant, and so the same facts.

# An input's facts but the certificate.
_fact_fields = operator.attrgetter(*(f.name for f in dataclasses.fields(verdicts.InputFacts) if f.name != "cert"))


class _RoundTrip:
    """Checks each distinct mutant once: equal fields give equal bytes,
    facts and feature vectors, so a repeat (a no-op, or two edits that
    commute) adds nothing.  The mutant's parts carry the facts cached on
    its ancestors; the re-parse's parts are fresh."""

    def __init__(self, trust, monkeypatch):
        self.trust = trust
        self.registry = features.default_registry()
        self.seen = set()
        self.parsed = {}
        # derive_facts parses the bytes it is given; sharing one parse per
        # encoding between the checks below keeps that path and its cost low
        monkeypatch.setattr(verdicts, "parse_der", self.parse)

    def parse(self, der, *, lenient=False):
        assert lenient
        if der not in self.parsed:
            self.parsed = {der: parse_der(der, lenient=True)}
        return self.parsed[der]

    def check(self, mutant):
        if mutant in self.seen:
            return
        self.seen.add(mutant)
        der = encode_der(mutant)
        reparsed = self.parse(der, lenient=True)
        assert reparsed == mutant
        assert features.extract(mutant, REFERENCE_TIME, self.registry) == features.extract(reparsed, REFERENCE_TIME, self.registry)
        for lenient in (True, False):
            from_fields = verdicts.derive_facts(mutant, self.trust, lenient)
            from_bytes = verdicts.derive_facts(der, self.trust, lenient)
            assert _fact_fields(from_fields) == _fact_fields(from_bytes)


def test_shift_out_of_utctime_window_takes_the_encoded_tag():
    # notAfter 2049-05-26 as UTCTime; a year later it can only be written
    # as GeneralizedTime, so the mutant must carry the tag its bytes have
    from diffcert import asn1

    params = dataclasses.replace(default_params(), not_after_offset=24 * 365 * 86400)
    cert = build_synthetic(params, 3)
    assert (cert.not_after.at.date().isoformat(), cert.not_after.tag) == ("2049-05-26", asn1.UTC_TIME)
    shifted = apply(cert, 13)
    reparsed = parse_der(encode_der(shifted), lenient=True)
    assert shifted.not_after.tag == asn1.GENERALIZED_TIME
    assert reparsed == shifted
    # and shifting back a year gives the same bytes from either path
    assert encode_der(apply(shifted, 12)) == encode_der(apply(reparsed, 12))


def _awkward_trust(fixtures):
    # every fixture's issuer is anchored, so a stale TBS would pass the
    # mock-signature check that a mutant must fail
    return TrustStore([TrustAnchor(cert.issuer_der(), "acme-root") for cert in fixtures])


@pytest.mark.parametrize("fixture", range(6))
def test_codec_round_trip_every_action_and_pair(fixture, monkeypatch):
    fixtures = awkward_fixtures()
    round_trip = _RoundTrip(_awkward_trust(fixtures), monkeypatch)
    for first in range(CATALOG_SIZE):
        once = apply(fixtures[fixture], first)
        round_trip.check(once)
        for second in range(CATALOG_SIZE):
            round_trip.check(apply(once, second))
    assert len(round_trip.seen) > 1_000


def test_codec_round_trip_stress(monkeypatch):
    # 3,000 seeded sequences of 1-10 actions from the awkward fixtures and
    # a generated corpus (legacy chains, v4, negative serials, private
    # extensions), each checked at its end
    corpus = generate_corpus(40, rng_seed=9)
    fixtures = awkward_fixtures()
    trust = _awkward_trust(fixtures)
    for anchor in corpus.trust.anchors():
        trust.add(anchor)
    round_trip = _RoundTrip(trust, monkeypatch)
    seeds = fixtures + [parse_der(entry.der) for entry in corpus.entries]
    rng = random.Random(2)
    for _ in range(3000):
        mutant = seeds[rng.randrange(len(seeds))]
        for _ in range(1 + rng.randrange(10)):
            mutant = apply(mutant, rng.randrange(CATALOG_SIZE))
        round_trip.check(mutant)
    assert len(round_trip.seen) > 2900
