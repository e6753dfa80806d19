"""JSON encoding of points, sets, chains and reports.

Exact rationals travel as "p/q" strings (plain integers as "n"); binary64
values stay JSON numbers.  Field names are part of the wire contract, see
docs/schema.md.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from fractions import Fraction

from .basesets import BasicOpenSet, ExtremeSingleton
from .convergence import ConvergenceCertificate
from .families import FAMILIES, Stratification
from .numerics import ModeMixError, Scalar
from .rosets import (
    _FLAG_NAMES,
    _KIND_TO_CLS,
    _PARAM_FIELDS,
    DecreasingChain,
    ParametricBasicSet,
    ParamValue,
    RegularOpenSet,
    validate_regular_open,
)
from .spaces import DoubleArrowPoint, NiemytzkiPoint, Point, SorgenfreyPoint, Space


class SchemaError(ValueError):
    """Malformed or unknown-field JSON input."""


@contextmanager
def _invalid(what: str):
    """Report a construction failure (``ValueError``, or exact and binary64
    parameters mixed in one object) as a schema error."""
    try:
        yield
    except SchemaError:
        raise
    except (ValueError, ModeMixError) as exc:
        raise SchemaError(f"invalid {what}: {exc}") from exc


def _int_field(obj: dict, key: str, default=None) -> int:
    """``obj[key]`` (or ``default``) as a JSON integer; a bool is not one."""
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{key!r} must be an integer, got {value!r}")
    return value


def _flag_fields(obj: dict, names) -> dict[str, bool]:
    """The extreme flags among ``names`` that ``obj`` sets, each a JSON boolean."""
    flags = {name: obj[name] for name in names if name in obj}
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise SchemaError(f"{name!r} must be a boolean, got {value!r}")
    return flags


def encode_scalar(v: Scalar):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def decode_scalar(v) -> Scalar:
    if isinstance(v, str):
        # an integer or "p/q"; Fraction() also reads "1e10000000", for seconds
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", v):
            raise SchemaError(f"bad rational literal {v!r}: an integer or p/q")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {v!r}") from exc
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"bad scalar {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if not math.isfinite(v):  # Python's JSON reader accepts NaN and Infinity
        raise SchemaError(f"a binary64 scalar is finite, got {v!r}")
    return float(v)


def _expect_fields(obj: dict, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {obj!r}")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)} in {obj!r}")
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)} in {obj!r}")


def encode_point(p: Point) -> dict:
    if isinstance(p, SorgenfreyPoint):
        return {"space": "sorgenfrey", "x": encode_scalar(p.x)}
    if isinstance(p, DoubleArrowPoint):
        return {"space": "double_arrow", "t": encode_scalar(p.t), "side": p.side}
    if isinstance(p, NiemytzkiPoint):
        return {"space": "niemytzki", "x": encode_scalar(p.x), "y": encode_scalar(p.y)}
    raise TypeError(f"unknown point {p!r}")


def decode_point(obj: dict) -> Point:
    if not isinstance(obj, dict) or "space" not in obj:
        raise SchemaError(f"bad point {obj!r}")
    space = obj["space"]
    with _invalid("point"):
        if space == "sorgenfrey":
            _expect_fields(obj, {"space", "x"})
            return SorgenfreyPoint(decode_scalar(obj["x"]))
        if space == "double_arrow":
            _expect_fields(obj, {"space", "t", "side"})
            return DoubleArrowPoint(decode_scalar(obj["t"]), obj["side"])
        if space == "niemytzki":
            _expect_fields(obj, {"space", "x", "y"})
            return NiemytzkiPoint(decode_scalar(obj["x"]), decode_scalar(obj["y"]))
    raise SchemaError(f"unknown space {space!r}")


def encode_basic_set(s: BasicOpenSet) -> dict:
    if isinstance(s, ExtremeSingleton):
        return {"kind": "extreme_singleton", "side": s.side}
    kind = getattr(s, "kind", None)
    if _KIND_TO_CLS.get(kind) is not type(s):
        raise TypeError(f"unknown base set {s!r}")
    out = {"kind": kind, **{name: encode_scalar(getattr(s, name)) for name in _PARAM_FIELDS[kind]}}
    out.update((name, True) for name in _FLAG_NAMES if getattr(s, name, False))
    return out


def decode_basic_set(obj: dict) -> BasicOpenSet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"bad base set {obj!r}")
    kind = obj["kind"]
    with _invalid("base set"):
        if kind == "extreme_singleton":
            _expect_fields(obj, {"kind", "side"})
            return ExtremeSingleton(obj["side"])
        if isinstance(kind, str) and kind in _KIND_TO_CLS:
            cls, fields = _KIND_TO_CLS[kind], _PARAM_FIELDS[kind]  # wire names are field names
            flags = [name for name in _FLAG_NAMES if hasattr(cls, name)]
            _expect_fields(obj, {"kind", *fields}, {*flags})
            values = {name: decode_scalar(obj[name]) for name in fields}
            return cls(**values, **_flag_fields(obj, flags))
    raise SchemaError(f"unknown base set kind {kind!r}")


_SPACES = {s.value: s for s in Space}


def encode_roset(s: RegularOpenSet) -> dict:
    return {"space": s.space.value, "components": [encode_basic_set(c) for c in s.components]}


def _space_and_components(obj: dict) -> tuple[Space, list]:
    """The ``space`` and the ``components`` list of a union or chain object."""
    space, comps = obj["space"], obj["components"]
    if not isinstance(space, str) or space not in _SPACES:
        raise SchemaError(f"unknown space {space!r}")
    if not isinstance(comps, list):
        raise SchemaError(f"'components' is a list, got {comps!r}")
    return _SPACES[space], comps


def decode_roset(obj: dict) -> RegularOpenSet:
    _expect_fields(obj, {"space", "components"}, {"certificate"})
    space, comps = _space_and_components(obj)
    components = [decode_basic_set(c) for c in comps]
    with _invalid("union"):
        return validate_regular_open(space, components)


def decode_set(obj: dict) -> RegularOpenSet:
    """A union when the object lists components, else a base set read as its
    one-component union; either is validated as regular open."""
    if isinstance(obj, dict) and "components" in obj:
        return decode_roset(obj)
    base = decode_basic_set(obj)
    with _invalid("union"):
        return validate_regular_open(base.space, [base])


def decode_family(label) -> Stratification:
    """The named family with this label."""
    if not isinstance(label, str) or label not in FAMILIES:
        raise SchemaError(f"unknown family label {label!r}")
    return FAMILIES[label]()


def encode_param_value(v: ParamValue) -> dict:
    out = {"const": encode_scalar(v.const)}
    if v.over_n:
        out["over_n"] = encode_scalar(v.over_n)
    if v.over_n2:
        out["over_n2"] = encode_scalar(v.over_n2)
    if v.shift:
        out["shift"] = v.shift
    return out


def decode_param_value(obj) -> ParamValue:
    if isinstance(obj, (str, int, float)):
        return ParamValue(decode_scalar(obj))
    _expect_fields(obj, {"const"}, {"over_n", "over_n2", "shift"})
    return ParamValue(
        decode_scalar(obj["const"]),
        decode_scalar(obj.get("over_n", "0")),
        decode_scalar(obj.get("over_n2", "0")),
        _int_field(obj, "shift", 0),
    )


def encode_parametric_set(s: ParametricBasicSet) -> dict:
    out = {"kind": s.kind}
    for name, pv in sorted(s.params.items()):
        out[name] = encode_param_value(pv)
    for name, val in sorted(s.flags.items()):
        out[name] = val
    return out


def decode_parametric_set(obj: dict) -> ParametricBasicSet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"bad parametric set {obj!r}")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PARAM_FIELDS:
        raise SchemaError(f"unknown parametric kind {kind!r}")
    fields = _PARAM_FIELDS[kind]  # wire names match constructor names
    _expect_fields(obj, {"kind", *fields}, {*_FLAG_NAMES})
    params = {name: decode_param_value(obj[name]) for name in fields}
    return ParametricBasicSet(kind, params, _flag_fields(obj, _FLAG_NAMES))


def _lane_limits(chain: DecreasingChain) -> list[BasicOpenSet]:
    """The lanes' limit elements, leaving out the lanes that degenerate."""
    return [el for el in (c.limit_element() for c in chain.components) if el is not None]


def encode_chain(chain: DecreasingChain) -> dict:
    return {
        "space": chain.space.value,
        "param": "n",
        "components": [encode_parametric_set(c) for c in chain.components],
        "limit": {
            "space": chain.space.value,
            "components": [encode_basic_set(el) for el in _lane_limits(chain)],
        },
    }


def decode_chain(obj: dict) -> DecreasingChain:
    _expect_fields(obj, {"space", "components"}, {"param", "limit"})
    space, comps = _space_and_components(obj)
    if obj.get("param", "n") != "n":
        raise SchemaError("chains are indexed by the parameter 'n'")
    with _invalid("chain"):  # a chain is validated when it is built
        lanes = tuple(decode_parametric_set(c) for c in comps)
        chain = DecreasingChain(space, lanes)
    if "limit" in obj:
        _expect_fields(obj["limit"], {"space", "components"})
        limit_space, limit_comps = _space_and_components(obj["limit"])
        if limit_space is not space or [decode_basic_set(c) for c in limit_comps] != _lane_limits(chain):
            raise SchemaError(f"'limit' {obj['limit']!r} is not the limit of the chain's lanes")
    return chain


def encode_certificate(cert: ConvergenceCertificate) -> dict:
    out = {
        "limit": encode_point(cert.limit),
        "sequence": [encode_param_value(pv) for pv in cert.sequence],
        "size": encode_param_value(cert.size),
    }
    if cert.space is Space.DOUBLE_ARROW:
        out["side"] = cert.side
    return out


def decode_certificate(obj: dict) -> ConvergenceCertificate:
    _expect_fields(obj, {"limit", "sequence", "size"}, {"side"})
    if not isinstance(obj["sequence"], list):
        raise SchemaError(f"'sequence' is a list, got {obj['sequence']!r}")
    limit = decode_point(obj["limit"])
    sequence = tuple(decode_param_value(pv) for pv in obj["sequence"])
    with _invalid("certificate"):
        return ConvergenceCertificate(
            limit, sequence, decode_param_value(obj["size"]), _int_field(obj, "side", 0)
        )


def dumps_canonical(payload) -> str:
    """Deterministic JSON: sorted keys, no float formatting drift."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)
