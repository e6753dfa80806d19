"""Mutation adequacy: families that each break one axiom, and whether the
shipped corpus kills them.

Each mutant wraps the bound member f_U of a named family and is installed
under that family's own label in ``families.FAMILIES``, where the corpus
reads it.  Its entry names the axiom it breaks, with an explicit witness
that shows the mutant is not the family, and either the corpus checks that
kill it at the shipped seeds or the ROADMAP item expected to kill it.
"""

from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import pytest

from kappalab import (
    DecreasingChain,
    DoubleArrowPoint,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    ParametricBasicSet,
    ParamValue,
    SorgenfreyPoint,
    Space,
    basic_member,
    validate_regular_open,
)
from kappalab.families import FAMILIES, Stratification, disc_in_union, niemytzki_basic_f
from kappalab.numerics import lt, sq
from kappalab.spaces import sq_dist


#: the named families as shipped, before any test installs a mutant
_SHIPPED = dict(FAMILIES)


@dataclass(frozen=True)
class Mutant:
    name: str
    label: str
    axiom: str
    #: (U, the family's f_U) -> the mutant's f_U
    wrap: Callable
    #: (the mutant, the family) -> None; asserts that the mutant breaks the
    #: axiom at one explicit set and point, where the family does not
    witness: Callable
    #: the check kinds that kill it in ``check --corpus`` at the shipped
    #: seeds; empty for a survivor
    kills: frozenset = frozenset()
    #: the ROADMAP item expected to kill a survivor
    item: Optional[int] = None

    def family(self) -> Stratification:
        return _SHIPPED[self.label]()

    def stratification(self) -> Stratification:
        S = self.family()
        return Stratification(S.space, self.label, lambda U: self.wrap(U, S.bind(U)))


def _component_holding(U, p):
    return next((c for c in U.components if basic_member(c, p)), None)


def _halved(U, f):
    """f_U halved on the interval components no longer than 1/2."""

    def f_U(p):
        c = _component_holding(U, p)
        short = c is not None and hasattr(c, "b") and c.b - c.a <= F(1, 2)
        return f(p) / 2 if short else f(p)

    return f_U


def _sorgenfrey_band(U, f):
    """0 within 2^-20 of the right end b of the component holding x."""

    def f_U(x):
        c = _component_holding(U, x)
        return F(0) if c is not None and c.b - x.x < F(1, 2**20) else f(x)

    return f_U


def _sorgenfrey_left(U, f):
    """0 at the left end a of each component."""
    return lambda x: F(0) if any(x.x == c.a for c in U.components) else f(x)


def _sorgenfrey_uncapped(U, f):
    """b - x on the component [a, b) holding x: the value without its cap."""

    def f_U(x):
        c = _component_holding(U, x)
        return f(x) if c is None else c.b - x.x

    return f_U


def _niemytzki_band(U, f):
    """0 where r - d < 2^-30 in an interior-disc component of radius r, at
    the distance d from its centre."""

    def f_U(p):
        for c in U.components:
            if isinstance(c, InteriorDisc) and basic_member(c, p):
                band = c.r - type(c.r)(F(1, 2**30))
                if lt(sq(band), sq_dist(p, c.center)):
                    return type(c.r)(0)
        return f(p)

    return f_U


def _niemytzki_component_max(U, f):
    """On an overlapping union, the largest component value in place of the
    union supremum."""
    if len(U.components) == 1 or U.separated:
        return f
    return lambda p: max(niemytzki_basic_f(c, p) for c in U.components)


def _sorgenfrey_chain_witness(mutant, family):
    # U_n = [0, 1/2 + 1/n) decreases to W = [0, 1/2): f_{U_n}(0) > 1/2 for
    # every n, and the mutant's f_W(0) = 1/4 is below their infimum 1/2
    lane = ParametricBasicSet("half_open", {"a": ParamValue(F(0)), "b": ParamValue(F(1, 2), F(1))})
    _chain_witness(mutant, family, DecreasingChain(Space.SORGENFREY, (lane,)), SorgenfreyPoint(F(0)))


def _double_arrow_chain_witness(mutant, family):
    # U_n = [(0,1), (1/2 + 1/(n+1), 0)] decreases to W = [(0,1), (1/2,0)]
    lane = ParametricBasicSet(
        "clopen_interval", {"a": ParamValue(F(0)), "b": ParamValue(F(1, 2), F(1), shift=1)}
    )
    _chain_witness(mutant, family, DecreasingChain(Space.DOUBLE_ARROW, (lane,)), DoubleArrowPoint(F(1, 4), 0))


def _chain_witness(mutant, family, chain, p):
    W = chain.interior
    assert mutant.value(W, p) == F(1, 4) and family.value(W, p) == F(1, 2)
    for n in range(1, 65):  # every element is longer than 1/2: the two agree
        U = chain.at(n)
        assert mutant.value(U, p) == family.value(U, p) > F(1, 2)


def _support_witness(U, p, family_value):
    def witness(mutant, family):
        assert basic_member(U.components[0], p)
        assert mutant.value(U, p) == 0 and family.value(U, p) == family_value

    return witness


def _codomain_witness(mutant, family):
    U, x = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(2))]), SorgenfreyPoint(F(0))
    assert mutant.value(U, x) == 2 and family.value(U, x) == 1


def _monotonicity_witness(mutant, family):
    # the disc B((1/4, 2), 2/5) lies in the lens of V, where its own value
    # 2/5 exceeds the larger component value 1/4; V's value is sqrt(3)/4
    U = InteriorDisc(F(1, 4), F(2), F(2, 5))
    V = validate_regular_open(
        Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1, 2)), InteriorDisc(F(1, 2), F(2), F(1, 2))]
    )
    p = NiemytzkiPoint(F(1, 4), F(2))
    assert disc_in_union(U, V)
    f_U = mutant.value(validate_regular_open(Space.NIEMYTZKI, [U]), p)
    assert f_U == F(2, 5) > mutant.value(V, p) == F(1, 4)
    assert family.value(V, p) == pytest.approx(3**0.5 / 4) and family.value(V, p) > f_U


def _sorgenfrey_set(a, b):
    return validate_regular_open(Space.SORGENFREY, [HalfOpen(F(a), F(b))])


MUTANTS = (
    Mutant("S-halved", "sorgenfrey_kappa", "4", _halved, _sorgenfrey_chain_witness, item=7),
    Mutant("D-halved", "double_arrow_ro", "4", _halved, _double_arrow_chain_witness, item=7),
    Mutant(
        "S-band",
        "sorgenfrey_kappa",
        "1",
        _sorgenfrey_band,
        _support_witness(_sorgenfrey_set(0, 1), SorgenfreyPoint(1 - F(1, 2**21)), F(1, 2**21)),
        item=11,
    ),
    Mutant(
        "S-left",
        "sorgenfrey_kappa",
        "1",
        _sorgenfrey_left,
        _support_witness(_sorgenfrey_set(0, 1), SorgenfreyPoint(F(0)), F(1)),
        kills=frozenset({"condition_1", "condition_d", "bridge", "separations"}),
    ),
    Mutant(
        "S-uncap",
        "sorgenfrey_kappa",
        "codomain [0, 1]",
        _sorgenfrey_uncapped,
        _codomain_witness,
        kills=frozenset({"condition_1"}),
    ),
    Mutant(
        "N-band",
        "niemytzki_kappa",
        "1",
        _niemytzki_band,
        _support_witness(
            validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))]),
            NiemytzkiPoint(1 - F(1, 2**40), F(2)),
            F(1, 2**40),
        ),
        item=11,
    ),
    Mutant("N-cmax", "niemytzki_kappa", "2", _niemytzki_component_max, _monotonicity_witness, item=8),
)

_IDS = [m.name for m in MUTANTS]


def test_the_catalogue_lists_the_seven_mutants():
    assert _IDS == ["S-halved", "D-halved", "S-band", "S-left", "S-uncap", "N-band", "N-cmax"]
    for m in MUTANTS:  # a survivor names the item expected to kill it, a killed one none
        assert (m.item is None) is bool(m.kills)
        assert m.item in (None, 7, 8, 11)


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_each_mutant_breaks_its_axiom_where_the_family_holds(mutant):
    mutant.witness(mutant.stratification(), mutant.family())


def _corpus_kills(mutant, monkeypatch, capsys):
    """The check kinds with an unexpected verdict in ``check --corpus`` at
    the shipped seeds, with the mutant installed under its label."""
    from kappalab.cli import main

    monkeypatch.delenv("KAPPALAB_MODE", raising=False)
    monkeypatch.setitem(FAMILIES, mutant.label, mutant.stratification)
    code = main(["check", "--corpus"])
    lines = capsys.readouterr().out.splitlines()
    kills = {line.split()[1].split(":")[0] for line in lines if line.startswith("  XX ")}
    assert code == (3 if kills else 0)
    return kills


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_the_corpus_kills_every_mutant_listed_as_killed(mutant, monkeypatch, capsys):
    kills = _corpus_kills(mutant, monkeypatch, capsys)
    assert kills >= mutant.kills
