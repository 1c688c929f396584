"""Certificate codec tests: lossless round-trips, PEM armor, the synthetic
builder's determinism and the mock signature scheme."""

import dataclasses
import datetime as dt
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffcert import asn1, certs
from diffcert.certs import (
    REFERENCE_TIME,
    ExtensionParam,
    InvalidParams,
    MalformedDer,
    MalformedPem,
    SeedParams,
    TimeValue,
    build_synthetic,
    encode_der,
    mock_sign,
    parse_der,
    pem_decode,
    pem_encode,
)

ONE_YEAR = 365 * 24 * 3600


def test_round_trip_default_fixture(default_cert):
    der = encode_der(default_cert)
    parsed = parse_der(der)
    assert encode_der(parsed) == der
    assert parsed == default_cert
    assert parsed.version == 3


def test_edited_copy_encodes_from_its_fields(default_cert):
    # only the parse holds the parsed bytes: a copy, edited or not,
    # encodes its own fields
    parsed = parse_der(encode_der(default_cert))
    edited = dataclasses.replace(parsed, serial=2, serial_raw=b"\x02")
    assert parse_der(encode_der(edited)) == edited
    assert encode_der(dataclasses.replace(parsed)) == encode_der(parsed)


def test_parse_rejects_non_sequence():
    with pytest.raises(MalformedDer):
        parse_der(b"\x02\x01\x05")
    with pytest.raises(MalformedDer):
        parse_der(b"")


def test_parse_rejects_trailing_bytes(default_cert):
    with pytest.raises(MalformedDer):
        parse_der(encode_der(default_cert) + b"\x00")


def test_parse_rejects_truncation(default_cert):
    der = encode_der(default_cert)
    with pytest.raises(MalformedDer):
        parse_der(der[: len(der) // 2])


seed_params = st.builds(
    SeedParams,
    version=st.just(3),
    serial=st.one_of(st.none(), st.integers(min_value=-(2**80), max_value=2**80)),
    not_before_offset=st.integers(min_value=-30 * ONE_YEAR, max_value=30 * ONE_YEAR),
    not_after_offset=st.integers(min_value=-30 * ONE_YEAR, max_value=30 * ONE_YEAR),
    issuer_country=st.one_of(st.none(), st.sampled_from(["US", "DE", "JP"])),
    subject_country=st.one_of(st.none(), st.sampled_from(["FR", "CN", "GB"])),
    key_bits=st.sampled_from([512, 1024, 2048, 4096]),
    use_generalized_time=st.booleans(),
    extensions=st.one_of(st.just(()), st.just(SeedParams().extensions)),
)


@settings(max_examples=60, deadline=None)
@given(params=seed_params, rng_seed=st.integers(min_value=0, max_value=2**32))
def test_round_trip_generated(params, rng_seed):
    cert = build_synthetic(params, rng_seed)
    der = encode_der(cert)
    again = parse_der(der)
    assert encode_der(again) == der
    assert again == cert


def test_builder_determinism():
    a = build_synthetic(SeedParams(), 99)
    b = build_synthetic(SeedParams(), 99)
    assert encode_der(a) == encode_der(b)
    c = build_synthetic(SeedParams(), 100)
    assert encode_der(c) != encode_der(a)


def test_builder_default_contents(default_cert):
    from diffcert import x509oids as oid

    assert default_cert.version == 3
    oids = [e.oid for e in default_cert.extensions]
    assert oid.BASIC_CONSTRAINTS in oids
    assert oid.KEY_USAGE in oids
    assert default_cert.extension(oid.BASIC_CONSTRAINTS).critical
    assert default_cert.public_key_info.bit_length == 2048


def test_builder_rejects_v1_with_extensions():
    with pytest.raises(InvalidParams):
        build_synthetic(SeedParams(version=1), 1)
    # bare v1 is fine
    cert = build_synthetic(SeedParams(version=1, extensions=()), 1)
    assert cert.version == 1
    assert not cert.version_present


@pytest.mark.parametrize(
    "kwargs",
    [
        {"version": 0},
        {"version": 5},
        {"key_bits": 7},
        {"key_bits": 9000},
        {"issuer_country": "USA"},
        {"not_after_offset": 500 * 365 * 24 * 3600},
    ],
)
def test_builder_param_validation(kwargs):
    with pytest.raises(InvalidParams):
        build_synthetic(SeedParams(**kwargs), 1)


def test_v1_omits_version_field():
    cert = build_synthetic(SeedParams(version=1, extensions=()), 5)
    assert not cert.version_present
    # wire bytes carry no [0] EXPLICIT element
    tbs = cert.encoding[0]
    _, start, _, _ = asn1.read_tlv(tbs, 0, len(tbs))
    first_tag = tbs[start]
    assert first_tag == asn1.INTEGER  # serial comes first


def test_version_wire_value_is_human_minus_one(default_cert):
    tbs = default_cert.encoding[0]
    _, start, stop, _ = asn1.read_tlv(tbs, 0, len(tbs))
    vstart, vstop, _ = asn1.read_tlv(tbs, start, stop)[1:]
    istart, istop, _ = asn1.read_tlv(tbs, vstart, vstop)[1:]
    assert tbs[istart:istop] == b"\x02"  # human version 3 -> wire 2


def test_negative_serial_encodes_twos_complement():
    cert = build_synthetic(SeedParams(serial=-1), 3)
    assert cert.serial_raw == b"\xff"
    # independent check: the raw octets decode back to -1 as a signed integer
    assert int.from_bytes(cert.serial_raw, "big", signed=True) == -1
    round_tripped = parse_der(encode_der(cert))
    assert round_tripped.serial == -1


def test_time_tag_preserved():
    utc_cert = build_synthetic(SeedParams(), 4)
    assert utc_cert.not_before.tag == asn1.UTC_TIME
    gen_cert = build_synthetic(SeedParams(use_generalized_time=True), 4)
    assert gen_cert.not_before.tag == asn1.GENERALIZED_TIME
    again = parse_der(encode_der(gen_cert))
    assert again.not_before.tag == asn1.GENERALIZED_TIME


def test_time_value_seconds_add_like_datetimes():
    # a validity bound's cached whole seconds plus a whole-second linger
    # give what moving the datetime would, on both sides of 1970
    rng = random.Random(8)
    for year in range(1, 9999):
        at = dt.datetime(year, rng.randint(1, 12), rng.randint(1, 28), rng.randrange(24), rng.randrange(60), rng.randrange(60), tzinfo=asn1.UTC)
        bound = TimeValue(at, asn1.time_tag(at, asn1.UTC_TIME))
        for linger in (0, 1, 59, 3600, 8 * 3600, 24 * 3600):
            assert bound.seconds + linger == int((at + dt.timedelta(seconds=linger)).timestamp())


def test_unknown_tbs_field_rejected(default_cert):
    # splice an unexpected context tag where the serial should be
    with pytest.raises((MalformedDer, certs.UnsupportedStructure)):
        parse_der(b"\x30\x06\x30\x04\xa5\x02\x05\x00")


# ---------------------------------------------------------------------------
# PEM armor

@given(st.binary(min_size=0, max_size=400))
def test_pem_round_trip(blob):
    assert pem_decode(pem_encode(blob)) == blob


def test_pem_layout(default_cert):
    text = pem_encode(encode_der(default_cert))
    lines = text.splitlines()
    assert lines[0] == "-----BEGIN CERTIFICATE-----"
    assert lines[-1] == "-----END CERTIFICATE-----"
    assert all(len(line) <= 64 for line in lines[1:-1])


def test_pem_rejects_missing_armor():
    with pytest.raises(MalformedPem):
        pem_decode("just some text")


def test_pem_rejects_bad_base64():
    with pytest.raises(MalformedPem):
        pem_decode("-----BEGIN CERTIFICATE-----\n!!!!\n-----END CERTIFICATE-----\n")


# ---------------------------------------------------------------------------
# Mock signatures

def test_mock_sign_deterministic():
    assert mock_sign(b"abc", "tag") == mock_sign(b"abc", "tag")
    assert mock_sign(b"abc", "tag") != mock_sign(b"abc", "other")


def test_mock_sign_sensitive_to_tbs_flips(default_cert):
    # collision check across the fixture corpus: flipping any sampled TBS
    # byte must change the digest
    tbs = default_cert.encoding[0]
    base = mock_sign(tbs, "acme-root")
    for pos in range(0, len(tbs), 37):
        flipped = bytearray(tbs)
        flipped[pos] ^= 0x01
        assert mock_sign(bytes(flipped), "acme-root") != base


def test_builder_signature_matches_mock_scheme(default_cert):
    assert default_cert.signature_value == b"\x00" + mock_sign(default_cert.encoding[0], "acme-root")
