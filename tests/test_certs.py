"""Certificate codec tests: lossless round-trips, the part DER the parse
seeds, the parts it interns, certificate copies, PEM armor, the synthetic
builder's determinism and the mock signature scheme."""

import dataclasses
import datetime as dt
import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffcert import actions, asn1, certs, x509oids as oid
from diffcert.certs import (
    REFERENCE_TIME,
    Certificate,
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
from diffcert.corpus import generate_corpus

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


def _parts(cert: Certificate) -> list:
    return [
        cert.signature_algorithm,
        cert.issuer,
        cert.not_before,
        cert.not_after,
        cert.subject,
        cert.public_key_info,
        *cert.extensions,
    ]


def _unseeded(cert: Certificate) -> Certificate:
    """A copy whose every part is fresh, so it encodes all from fields."""
    fresh = dataclasses.replace
    return fresh(
        cert,
        signature_algorithm=fresh(cert.signature_algorithm),
        issuer=fresh(cert.issuer),
        subject=fresh(cert.subject),
        not_before=fresh(cert.not_before),
        not_after=fresh(cert.not_after),
        public_key_info=fresh(cert.public_key_info),
        extensions=tuple(fresh(ext) for ext in cert.extensions),
    )


@functools.cache
def _codec_inputs() -> tuple[tuple[bytes, bool], ...]:
    """(DER, lenient) pairs: two generated corpora parsed strictly, and
    their seeds with an explicit FALSE criticality flag, which only a
    lenient parse accepts."""
    explicit_false = [spec.id for spec in actions.catalog() if "flag encoded explicitly" in spec.description][:3]
    inputs = []
    for n, rng_seed in ((40, 1), (40, 2)):
        for entry in generate_corpus(n, rng_seed).entries:
            inputs.append((entry.der, False))
            seed = parse_der(entry.der)
            for action in explicit_false:
                inputs.append((encode_der(actions.apply(seed, action)), True))
    return tuple(inputs)


def _assert_seeded_parts_exact(cert: Certificate) -> None:
    for part in _parts(cert):
        assert "der" in vars(part)  # seeded by the parse, not computed
        assert part.der == dataclasses.replace(part).der
    state = vars(cert)  # both seeded by the parse: the TBS is the slice after the outer header
    _, start, _, _ = asn1.read_tlv(state["encoding"], 0, len(state["encoding"]))
    assert state["tbs"] == state["encoding"][start : start + len(state["tbs"])] == certs.encode_tbs(cert)
    assert encode_der(_unseeded(cert)) == cert.encoding


def test_parse_seeds_exact_part_der_on_generated_corpora():
    inputs = _codec_inputs()
    assert any(lenient for _, lenient in inputs) and not all(lenient for _, lenient in inputs)
    for der, lenient in inputs:
        _assert_seeded_parts_exact(parse_der(der, lenient=lenient))
        if not lenient:
            _assert_seeded_parts_exact(parse_der(der, lenient=True))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_seeds_exact_part_der_on_byte_flips(data):
    # a flipped input that still parses, strictly or leniently, re-encodes
    # every part to the slice the parse seeded it with
    der, _ = data.draw(st.sampled_from(_codec_inputs()))
    pos = data.draw(st.integers(min_value=0, max_value=len(der) - 1))
    flipped = bytearray(der)
    flipped[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    parsed = 0
    for lenient in (False, True):
        try:
            cert = parse_der(bytes(flipped), lenient=lenient)
        except ValueError:
            continue
        parsed += 1
        _assert_seeded_parts_exact(cert)
    assume(parsed)


def test_single_field_edit_shares_parts_and_encodes_no_extension(default_cert, monkeypatch):
    # the first mutant of a seed re-encodes only what its action replaced:
    # a serial edit shares its parent's names and extensions and computes
    # no extension's DER, yet encodes as if every part were fresh
    seed = parse_der(encode_der(default_cert))
    computed = []
    cached = vars(certs.Extension)["der"]
    encode_extension = cached.fn
    monkeypatch.setattr(cached, "fn", lambda ext: computed.append(ext) or encode_extension(ext))
    (serial_one,) = (spec.id for spec in actions.catalog() if spec.description == "set the serial number to 1")
    mutant = actions.apply(seed, serial_one)
    der = encode_der(mutant)
    assert mutant.serial == 1 and der != encode_der(seed)
    assert mutant.issuer is seed.issuer and mutant.subject is seed.subject
    assert mutant.extensions is seed.extensions
    assert computed == []
    # an edit of one extension computes that extension's DER only
    (corrupt_san,) = (spec.id for spec in actions.catalog() if spec.description == "corrupt the value of subjectAltName")
    edited = actions.apply(mutant, corrupt_san)
    edited_der = encode_der(edited)
    assert [ext.oid for ext in computed] == [oid.SUBJECT_ALT_NAME]
    assert der == encode_der(_unseeded(mutant))
    assert edited_der == encode_der(_unseeded(edited))


def test_copy_certificate_equals_replace_without_caches(default_cert):
    parsed = parse_der(encode_der(default_cert))
    assert parsed.strict_der and {"tbs", "encoding"} <= vars(parsed).keys()  # every cache filled
    explicit_false = next(spec.id for spec in actions.catalog() if "flag encoded explicitly" in spec.description)
    lenient = actions.apply(parsed, explicit_false)
    assert lenient.strict_der is False
    cases = (
        (parsed, {}),
        (parsed, {"serial": 2, "serial_raw": b"\x02"}),
        (parsed, {"subject": parsed.issuer, "extensions": ()}),
        (parsed, {"extensions": parsed.extensions}),  # the same tuple, yet named among the changes
        (lenient, {"serial": 2, "serial_raw": b"\x02"}),
        (lenient, {"extensions": parsed.extensions}),
    )
    for source, changes in cases:
        copy = certs.copy_certificate(source, **changes)
        expected = dataclasses.replace(source, **changes)
        assert type(copy) is Certificate and copy == expected
        fields = {name: value for name, value in vars(copy).items() if name != "strict_der"}
        assert fields == vars(expected)  # field for field, and no cached bytes
        assert "encoding" not in vars(copy) and "tbs" not in vars(copy)
        if "extensions" in changes:
            assert "strict_der" not in vars(copy)  # no cached attribute at all
        else:  # the extensions are the source's: so is strict_der
            assert vars(copy)["strict_der"] is source.strict_der
        assert copy.strict_der == dataclasses.replace(copy).strict_der  # a fresh computation
        assert encode_der(copy) == encode_der(expected)
        assert copy.tbs == certs.encode_tbs(copy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy.serial = 3
    with pytest.raises(TypeError, match="serial_number"):
        certs.copy_certificate(parsed, serial_number=3)
    with pytest.raises(TypeError):
        dataclasses.replace(parsed, serial_number=3)


_EDIT_CACHES = ("_name_with_country", "_shifted_time", "_time_at", "_algorithm_with_oid", "_edited_extension")
_PART_CACHES = (  # (owner, name): the parse's caches, whole certificates too, and the parts edits build
    *((certs, name) for name in ("_certificate", "_algorithm", "_name", "_time", "_extension")),
    *((actions, name) for name in _EDIT_CACHES),
)


def _clear_part_caches() -> None:
    for owner, name in _PART_CACHES:
        getattr(owner, name).cache_clear()


def _parse_outcome(der: bytes, lenient: bool) -> tuple:
    """What a parse gives: the fields, every part's DER and the TBS it
    encodes, or the exception's type, offset and message."""
    try:
        cert = parse_der(der, lenient=lenient)
    except ValueError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)
    return cert, [part.der for part in _parts(cert)], certs.encode_tbs(cert) == cert.tbs


def _uncached_outcome(der: bytes, lenient: bool) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in _PART_CACHES:
            mp.setattr(owner, name, getattr(owner, name).__wrapped__)
        return _parse_outcome(der, lenient)


def _assert_interned_parse_exact(der: bytes) -> None:
    for lenient in (False, True):
        expected = _uncached_outcome(der, lenient)
        assert _parse_outcome(der, lenient) == expected  # cold or warm
        assert _parse_outcome(der, lenient) == expected  # warm


def test_interned_parse_equals_uncached_on_generated_corpora():
    inputs = _codec_inputs()  # built before the caches are emptied: each input's first parse is cold
    _clear_part_caches()
    for der, _ in inputs:
        _assert_interned_parse_exact(der)
    # a warm parse finds the certificate, so the part caches saw only cold ones
    assert certs._extension.cache_info().hits > certs._extension.cache_info().misses


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_interned_parse_equals_uncached_on_byte_flips(data):
    # a flip that lands inside a part fails there: the interned parse
    # reports it at the same offset with the same reason
    der, _ = data.draw(st.sampled_from(_codec_inputs()))
    pos = data.draw(st.integers(min_value=0, max_value=len(der) - 1))
    flipped = bytearray(der)
    flipped[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    _assert_interned_parse_exact(bytes(flipped))


def test_part_failures_keep_their_offset_in_the_input(default_cert):
    # each part is parsed from its own slice; a fault inside it is still
    # reported at its offset in the certificate
    der = encode_der(default_cert)
    ext = default_cert.extension(oid.BASIC_CONSTRAINTS)
    assert ext.der[7:10] == b"\x01\x01\xff"  # the criticality BOOLEAN
    cases = (  # part, where to write, what, reported offset in the part, reason
        (default_cert.signature_algorithm.der, 4, b"\x80", 4, "non-minimal OID subidentifier"),
        (default_cert.subject.der, 8, b"\x80", 8, "non-minimal OID subidentifier"),
        (default_cert.not_after.der, 4, b"13", 2, "invalid time value"),
        (ext.der, 9, b"\x01", 9, "BOOLEAN content must be"),
    )
    for part_der, at, new, reported, reason in cases:
        pos = der.index(part_der)
        broken = der[: pos + at] + new + der[pos + at + len(new) :]
        with pytest.raises(MalformedDer, match=reason) as info:
            parse_der(broken, lenient=True)
        assert info.value.offset == pos + reported


def test_interned_parts_are_shared_between_corpora():
    _clear_part_caches()  # a certificate cached earlier holds parts interned before a clear
    first = [parse_der(entry.der) for entry in generate_corpus(20, 3).entries]
    seen = {}
    for cert in first:
        for part in _parts(cert):
            seen.setdefault((type(part), part.der), part)
    second = [parse_der(entry.der) for entry in generate_corpus(20, 4).entries]
    repeated = [part for cert in second for part in _parts(cert) if (type(part), part.der) in seen]
    assert {type(part) for part in repeated} >= {certs.AlgorithmId, certs.Name, TimeValue, certs.Extension}
    for part in repeated:
        if type(part) is certs.PublicKeyInfo:  # unique to a seed: not interned
            assert part is not seen[(type(part), part.der)]
        else:
            assert part is seen[(type(part), part.der)]
    # the SPKI is the seed's own, its AlgorithmIdentifier is interned
    for one, other in zip(first, second):
        assert one.public_key_info.algorithm is other.public_key_info.algorithm
        assert one.public_key_info is not other.public_key_info


def test_lenient_extension_is_not_served_to_a_strict_parse():
    (der, _), *_ = (pair for pair in _codec_inputs() if pair[1])
    _clear_part_caches()
    with pytest.raises(MalformedDer, match="criticality FALSE") as cold:
        parse_der(der)
    _clear_part_caches()
    assert not parse_der(der, lenient=True).strict_der
    with pytest.raises(MalformedDer) as warm:
        parse_der(der)
    assert (warm.value.offset, warm.value.reason) == (cold.value.offset, cold.value.reason)


def test_part_caches_stay_within_their_limit():
    _clear_part_caches()
    limit = certs.PART_CACHE_LIMIT
    for i in range(limit + 40):
        params = SeedParams(subject_common_name=f"host{i}.test", not_before_offset=-i, sig_alg_oid=f"1.2.3.{i}")
        cert = build_synthetic(params, i)  # a distinct name, time, algorithm and AKI each
        now = REFERENCE_TIME + dt.timedelta(seconds=i)
        # shift and clock notBefore, set the signature algorithm and the
        # subject country, rewrite the AKI
        for action in (9, 11, 16, 25, 52):
            actions.apply(cert, action, now)
    for owner, name in _PART_CACHES:
        info = getattr(owner, name).cache_info()
        assert info.misses > limit and info.currsize <= limit, name
    _clear_part_caches()


def test_certificate_cache_is_bounded_by_the_part_limit():
    assert certs._certificate.cache_info().maxsize == certs.PART_CACHE_LIMIT


def test_equal_der_gives_one_certificate_per_mode(default_cert):
    der = encode_der(default_cert)
    cert = parse_der(der)
    buffer = bytearray(der)
    assert parse_der(der) is cert and parse_der(buffer) is cert
    assert parse_der(der, lenient=True) is parse_der(buffer, lenient=True) is not cert
    buffer[-1] ^= 0xFF  # the parse copied the buffer: the cached certificate keeps its bytes
    assert cert.encoding == der and parse_der(der) is cert
    assert parse_der(bytes(buffer)).signature_value != cert.signature_value


def test_cached_lenient_certificate_is_not_served_to_a_strict_parse():
    (der, _), *_ = (pair for pair in _codec_inputs() if pair[1])
    cert = parse_der(der, lenient=True)
    assert not cert.strict_der and parse_der(der, lenient=True) is cert
    for _ in range(2):
        with pytest.raises(MalformedDer, match="criticality FALSE"):
            parse_der(der)


def test_refused_certificate_is_not_cached(default_cert):
    der = encode_der(default_cert)
    tbs_tag = der.index(default_cert.tbs)
    refused = (
        (der + b"\x00", MalformedDer),  # a trailing byte
        (der[:tbs_tag] + b"\x31" + der[tbs_tag + 1 :], certs.UnsupportedStructure),  # a TBS SET
    )
    for data, error in refused:
        before = certs._certificate.cache_info().currsize
        outcomes = []
        for _ in range(2):
            with pytest.raises(error) as info:
                parse_der(data)
            outcomes.append((getattr(info.value, "offset", None), str(info.value)))
        assert outcomes[0] == outcomes[1]
        assert certs._certificate.cache_info().currsize == before


def test_mutants_leave_their_cached_seed_unchanged():
    entry = generate_corpus(1, 5).entries[0]
    seed = parse_der(entry.der)
    state = dict(vars(seed))
    assert state["encoding"] is entry.der
    for spec in actions.catalog():
        encode_der(actions.apply(seed, spec.id, now=REFERENCE_TIME))
    assert parse_der(entry.der) is seed and vars(seed) == state
    assert encode_der(seed) is entry.der


def test_empty_extensions_list_is_refused():
    # RFC 5280: Extensions ::= SEQUENCE SIZE (1..MAX).  Read as "no
    # extensions", [3] { SEQUENCE {} } would vanish from every re-encoding
    base = build_synthetic(SeedParams(extensions=()), 3)
    tbs = base.tbs
    _, start, _, _ = asn1.read_tlv(tbs, 0, len(tbs))
    tbs = asn1.tlv(asn1.SEQUENCE, tbs[start:] + b"\xa3\x02\x30\x00")
    der = asn1.tlv(asn1.SEQUENCE, tbs + base.outer_sig_alg_raw + asn1.tlv(asn1.BIT_STRING, base.signature_value))
    list_offset = der.index(tbs) + len(tbs) - 2
    for lenient in (False, True):
        with pytest.raises(MalformedDer, match="empty extensions list") as info:
            parse_der(der, lenient=lenient)
        assert info.value.offset == list_offset


def test_parse_rejects_non_sequence():
    with pytest.raises(MalformedDer):
        parse_der(b"\x02\x01\x05")
    with pytest.raises(MalformedDer):
        parse_der(b"")
    with pytest.raises(TypeError, match="^parse_der expects bytes$"):
        parse_der("3000")


# A v3 certificate small enough to count offsets in by hand: the TBS
# starts at 2 and its fields at 4 (issuer at 17, SPKI at 53), the
# signatureAlgorithm sits at 63 and the signature at 68, 71 bytes in all.
_ALG_1_2 = bytes.fromhex("300306012a")  # AlgorithmIdentifier { 1.2 }, no parameters
_TINY_FIELDS = (
    bytes.fromhex("a003020102"),  # version [0] { INTEGER 2 }
    bytes.fromhex("020101"),  # serialNumber 1
    _ALG_1_2,  # signature
    bytes.fromhex("3000"),  # issuer: an empty Name
    asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.UTC_TIME, b"250101000000Z") + asn1.tlv(asn1.UTC_TIME, b"260101000000Z")),
    bytes.fromhex("3000"),  # subject
    bytes.fromhex("3008") + _ALG_1_2 + bytes.fromhex("030100"),  # SPKI with an empty key
)
_TINY_EXTENSIONS = bytes.fromhex("a30b300930070603551d0e0400")  # [3] { { subjectKeyIdentifier, '' } }


def _tiny(fields=_TINY_FIELDS, alg=_ALG_1_2, sig=b"\x03\x01\x00", trailer=b"") -> bytes:
    return asn1.tlv(asn1.SEQUENCE, asn1.tlv(asn1.SEQUENCE, b"".join(fields)) + alg + sig + trailer)


def _tiny_issuer(issuer: bytes) -> bytes:
    return _tiny(_TINY_FIELDS[:3] + (issuer,) + _TINY_FIELDS[4:])


@pytest.mark.parametrize(
    "der, error, offset, reason",
    [
        (asn1.tlv(asn1.SEQUENCE, b"\x02\x01\x05"), certs.UnsupportedStructure, None, "tbsCertificate is not a SEQUENCE"),
        (_tiny(alg=b"\x05\x00"), certs.UnsupportedStructure, None, "signatureAlgorithm is not a SEQUENCE"),
        (_tiny(trailer=b"\x05\x00"), MalformedDer, 71, "trailing bytes inside the certificate SEQUENCE"),
        (_tiny(_TINY_FIELDS + (_TINY_EXTENSIONS, b"\x05\x00")), MalformedDer, 76, "trailing bytes in the TBS"),
        (_tiny((bytes.fromhex("a0030201ff"),) + _TINY_FIELDS[1:]), certs.UnsupportedStructure, None, "nonsensical version value -1"),
        (_tiny(_TINY_FIELDS + (b"\xa4\x00",)), certs.UnsupportedStructure, None, "unexpected TBS field with tag 0xa4"),
        (_tiny(sig=b"\x03\x00"), MalformedDer, 70, "empty BIT STRING"),
        (_tiny(_TINY_FIELDS + (bytes.fromhex("a30d300930070603551d0e04000500"),)), MalformedDer, 76, "trailing bytes after the extensions list"),
        (_tiny_issuer(bytes.fromhex("300f310d300b0603550406130244450500")), MalformedDer, 32, "trailing bytes in AttributeTypeAndValue"),
        (_tiny_issuer(bytes.fromhex("30023100")), MalformedDer, 21, "empty RelativeDistinguishedName"),
    ],
    ids=[
        "tbs-not-sequence", "signature-algorithm-not-sequence", "trailing-in-certificate", "trailing-in-tbs",
        "negative-version", "unexpected-tbs-tag", "empty-signature-bit-string", "trailing-after-extensions-list",
        "trailing-in-attribute", "empty-rdn",
    ],
)
def test_parse_refusals_keep_type_offset_and_reason(der, error, offset, reason):
    message = reason if offset is None else f"malformed DER at offset {offset}: {reason}"
    for lenient in (False, True):
        assert _parse_outcome(der, lenient) == (error, offset, message)
    # the hand-counted layout holds: the same certificate without the fault parses
    assert parse_der(_tiny()).encoding == _tiny()


def test_unique_ids_round_trip_and_survive_every_action(default_cert):
    # issuerUniqueID [1] and subjectUniqueID [2] sit between the SPKI and
    # the extensions; the model keeps them verbatim
    unique_ids = bytes.fromhex("810200aa820300bbcc")
    tiny = parse_der(_tiny(_TINY_FIELDS + (unique_ids, _TINY_EXTENSIONS)))
    assert tiny.unique_ids_raw == unique_ids and [ext.oid for ext in tiny.extensions] == [oid.SUBJECT_KEY_ID]
    der = encode_der(certs.copy_certificate(default_cert, unique_ids_raw=unique_ids))
    spki = default_cert.public_key_info.der
    assert der.index(unique_ids) == der.index(spki) + len(spki)
    cert = parse_der(der)
    assert cert.unique_ids_raw == unique_ids and encode_der(cert) == der
    assert certs.encode_tbs(cert) == cert.tbs
    for spec in actions.catalog():
        mutant = actions.apply(cert, spec.id)
        assert mutant.unique_ids_raw == unique_ids and unique_ids in encode_der(mutant), spec.description


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
    tbs = cert.tbs
    _, start, _, _ = asn1.read_tlv(tbs, 0, len(tbs))
    first_tag = tbs[start]
    assert first_tag == asn1.INTEGER  # serial comes first


def test_version_wire_value_is_human_minus_one(default_cert):
    tbs = default_cert.tbs
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
    tbs = default_cert.tbs
    base = mock_sign(tbs, "acme-root")
    for pos in range(0, len(tbs), 37):
        flipped = bytearray(tbs)
        flipped[pos] ^= 0x01
        assert mock_sign(bytes(flipped), "acme-root") != base


def test_builder_signature_matches_mock_scheme(default_cert):
    assert default_cert.signature_value == b"\x00" + mock_sign(default_cert.tbs, "acme-root")
