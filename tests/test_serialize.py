"""Wire format: rationals as p/q strings, strict field validation."""

from fractions import Fraction as F

import pytest

from kappalab import (
    ClopenInterval,
    DecreasingChain,
    DoubleArrowPoint,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    ParamValue,
    ParametricBasicSet,
    RegularOpenSet,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    validate_regular_open,
)
from kappalab.serialize import (
    SchemaError,
    decode_basic_set,
    decode_certificate,
    decode_chain,
    decode_point,
    decode_roset,
    decode_scalar,
    decode_set,
    encode_basic_set,
    encode_certificate,
    encode_chain,
    encode_point,
    encode_roset,
    encode_scalar,
)


def test_scalar_roundtrip():
    assert encode_scalar(F(1, 3)) == "1/3"
    assert encode_scalar(F(4, 2)) == "2"
    assert decode_scalar("1/3") == F(1, 3)
    assert decode_scalar(5) == F(5)
    assert decode_scalar(0.25) == 0.25
    with pytest.raises(SchemaError):
        decode_scalar("1/0")
    with pytest.raises(SchemaError):
        decode_scalar(True)


def test_point_roundtrip():
    pts = [
        SorgenfreyPoint(F(-3, 7)),
        DoubleArrowPoint(F(1, 2), 1),
        NiemytzkiPoint(F(1, 3), F(0)),
        NiemytzkiPoint(0.5, 0.25),
    ]
    for p in pts:
        assert decode_point(encode_point(p)) == p
    with pytest.raises(SchemaError):
        decode_point({"space": "sorgenfrey", "x": "1/2", "extra": 1})


def test_basic_set_roundtrip():
    sets = [
        HalfOpen(F(0), F(1)),
        ClopenInterval(F(0), F(1, 2), include_left_extreme=True),
        ExtremeSingleton(1),
        InteriorDisc(F(0), F(2), F(1)),
        TangentDisc(F(-1, 2), F(1, 4)),
    ]
    for s in sets:
        assert decode_basic_set(encode_basic_set(s)) == s
    with pytest.raises(SchemaError):
        decode_basic_set({"kind": "mystery"})
    with pytest.raises(SchemaError):
        decode_basic_set({"kind": "half_open", "a": "0"})


def test_decode_set_reads_a_base_set_as_its_one_component_union():
    sets = [
        HalfOpen(F(0), F(1)),
        ClopenInterval(F(0), F(1, 2), include_left_extreme=True),
        ExtremeSingleton(1),
        InteriorDisc(F(0), F(2), F(1)),
        TangentDisc(F(-1, 2), F(1, 4)),
    ]
    for s in sets:
        U = decode_set(encode_basic_set(s))
        assert isinstance(U, RegularOpenSet)
        assert U == validate_regular_open(s.space, [s])
    # validated like a union: neither base set below is regular open
    with pytest.raises(SchemaError):
        decode_set({"kind": "open_interval", "a": "0", "b": "1"})
    with pytest.raises(SchemaError):
        decode_set({"kind": "interior_disc", "cx": "0", "cy": "1", "r": "1"})
    with pytest.raises(SchemaError):
        decode_set(5)


def test_roset_roundtrip_revalidates():
    s = validate_regular_open(
        Space.NIEMYTZKI, [TangentDisc(F(0), F(1)), TangentDisc(F(3), F(1, 2))]
    )
    assert decode_roset(encode_roset(s)) == s


def test_chain_roundtrip_and_limit():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    chain = DecreasingChain(Space.NIEMYTZKI, (comp,))
    wire = encode_chain(chain)
    # a chain is decided for every n, so no truncation depth travels with it
    assert set(wire) == {"space", "param", "components", "limit"} and wire["param"] == "n"
    assert wire["limit"]["components"] == [{"kind": "tangent_disc", "a": "0", "r": "1/2"}]
    back = decode_chain(wire)
    assert back == chain and encode_chain(back) == wire
    with pytest.raises(SchemaError):
        decode_chain(dict(wire, depth=64))  # the old field is an unknown one


def test_chain_rejects_unknown_fields():
    comp = {"kind": "tangent_disc", "a": "0", "r": {"const": "1/2", "over_n": "1"}}
    with pytest.raises(SchemaError):
        decode_chain({"space": "niemytzki", "components": [comp], "bogus": 1})
    with pytest.raises(SchemaError):
        decode_chain({"space": "niemytzki", "components": [dict(comp, color="red")]})


def test_chain_limit_must_match_the_lanes():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    wire = encode_chain(DecreasingChain(Space.NIEMYTZKI, (comp,)))
    # the same limit written with other rational literals still matches
    wire["limit"]["components"] = [{"kind": "tangent_disc", "a": "0/3", "r": "2/4"}]
    assert decode_chain(wire).components == (comp,)
    for wrong in (
        [{"kind": "tangent_disc", "a": "0", "r": "1"}],
        [],
        [{"kind": "tangent_disc", "a": "0", "r": "1/2"}] * 2,
    ):
        wire["limit"]["components"] = wrong
        with pytest.raises(SchemaError):
            decode_chain(wire)
    wire["limit"] = {"space": "sorgenfrey", "components": []}
    with pytest.raises(SchemaError):
        decode_chain(wire)


def test_certificate_roundtrip():
    from kappalab.sampling import double_arrow_certificate, niemytzki_axis_certificate

    for cert in (
        double_arrow_certificate(F(1, 2), 1, F(1, 16)),
        niemytzki_axis_certificate(F(1, 2), F(1, 40), F(1, 8)),
    ):
        wire = encode_certificate(cert)
        assert decode_certificate(wire) == cert
    assert wire == {
        "limit": {"space": "niemytzki", "x": "1/2", "y": "0"},
        "sequence": [{"const": "1/2", "over_n2": "1/320"}, {"const": "0", "over_n2": "1/8"}],
        "size": {"const": "0", "over_n2": "1601/12800"},
    }
    for bad in (
        {**wire, "sequence": wire["sequence"][:1]},  # one coordinate short
        {**wire, "size": {"const": "0", "over_n": "1", "shift": 2}},  # another shift
        {**wire, "sequence": "x"},
        {**wire, "bogus": 1},
    ):
        with pytest.raises(SchemaError):
            decode_certificate(bad)
