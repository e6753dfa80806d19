"""Cross-module invariants not covered by a single checker."""

import random
from fractions import Fraction as F

from kappalab import (
    QGrid,
    Space,
    approximation_to_stratification,
    basic_subset,
    check_condition_3,
    decreasing_chain_interior,
    double_arrow_ro,
    member,
    sorgenfrey_kappa,
    stratification_to_approximation,
    user_supplied,
    validate_regular_open,
)
from kappalab.basesets import HalfOpen, basic_neighborhood
from kappalab.families import tabulated_evaluator
from kappalab.sampling import (
    double_arrow_certificate,
    sample_chain,
    sample_point_near_set,
    sorgenfrey_certificate,
)
from kappalab.spaces import SorgenfreyPoint


def test_points_outside_chain_interior_have_no_inscribed_neighborhood():
    rng = random.Random(71)
    for space in (Space.SORGENFREY, Space.NIEMYTZKI, Space.DOUBLE_ARROW):
        for _ in range(4):
            chain = sample_chain(space, rng)
            W = decreasing_chain_interior(chain)
            elements = [chain.at(n) for n in (1, 8, 24)]
            for _ in range(8):
                p = sample_point_near_set(chain.at(1), rng)
                if member(W, p):
                    continue
                for hood in (basic_neighborhood(p, k) for k in range(1, 7)):
                    inside_all = all(
                        any(basic_subset(hood, c) for c in el.components)
                        for el in elements
                    )
                    assert not inside_all, (chain, p, hood)


def test_reconstructed_family_continuous_on_exact_limits():
    # double arrow: the family is locally constant, so the reconstruction is
    # continuous along every certified sequence with deviation exactly 0
    S = double_arrow_ro()
    grid = QGrid(10)
    S2 = approximation_to_stratification(stratification_to_approximation(S, grid), grid)
    from kappalab.basesets import ClopenInterval

    U = validate_regular_open(Space.DOUBLE_ARROW, [ClopenInterval(F(1, 4), F(3, 4))])
    cert = double_arrow_certificate(F(1, 2), 0, F(1, 16))
    rep = check_condition_3(S2, [(U, cert)])
    assert rep.passed

    # Sorgenfrey with grid-exact data: the limit value 1/4 is dyadic
    Ss = sorgenfrey_kappa()
    S2s = approximation_to_stratification(
        stratification_to_approximation(Ss, grid), grid
    )
    Us = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1, 4))])
    cert_s = sorgenfrey_certificate(F(0), F(1, 1024))
    rep_s = check_condition_3(S2s, [(Us, cert_s)], tol=1e-3 + float(grid.step))
    assert rep_s.passed


def test_tabulated_family_nearest_sample():
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    table = {
        U: [
            (SorgenfreyPoint(F(0)), F(1)),
            (SorgenfreyPoint(F(1, 2)), F(1, 2)),
            (SorgenfreyPoint(F(2)), F(0)),
        ]
    }
    S = user_supplied(Space.SORGENFREY, tabulated_evaluator(table))
    assert S.value(U, SorgenfreyPoint(F(1, 16))) == 1  # nearest sample: 0
    assert S.value(U, SorgenfreyPoint(F(9, 16))) == F(1, 2)
    assert S.value(U, SorgenfreyPoint(F(3))) == 0


def test_user_table_scenario_runs(tmp_path):
    import json

    from kappalab.cli import main

    scenario = {
        "name": "user_table",
        "plan": {"seed": 2, "n_points": 40},
        "checks": [
            {
                "check": "condition_1",
                "family": {
                    "label": "user_supplied",
                    "space": "sorgenfrey",
                    "table": [
                        {
                            "set": {
                                "space": "sorgenfrey",
                                "components": [{"kind": "half_open", "a": "0", "b": "1"}],
                            },
                            "samples": [
                                {"point": {"space": "sorgenfrey", "x": "0"}, "value": "1"},
                                {"point": {"space": "sorgenfrey", "x": "1/2"}, "value": "1/2"},
                                {"point": {"space": "sorgenfrey", "x": "2"}, "value": "0"},
                            ],
                        }
                    ],
                },
                "expect": "fail",
            }
        ],
    }
    # nearest-sample semantics make the indicator leak outside the set, so
    # the support check is expected to fail on outside points near the set
    path = tmp_path / "user.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path)]) == 0


def test_mode_env_var(tmp_path, monkeypatch):
    from kappalab.cli import main

    out = tmp_path / "b.json"
    monkeypatch.setenv("KAPPALAB_MODE", "float")
    assert main(["refute", "niemytzki-strat", "--expect", "refuted", "--out", str(out)]) == 0
    monkeypatch.setenv("KAPPALAB_MODE", "bogus")
    assert main(["refute", "niemytzki-strat"]) == 2


def test_no_unused_module_level_imports():
    # a module-level import that nothing in its module reads is dead code;
    # the package's __init__ imports are its API and are exempt
    import ast
    from pathlib import Path

    import kappalab

    unused = []
    for path in sorted(Path(kappalab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def test_no_unreferenced_private_module_level_names():
    # a private module-level name (leading "_") that nothing else in the
    # package refers to is reachable from tests at most, which makes it dead
    # code; a reference inside the name's own definition does not count
    import ast
    from pathlib import Path

    import kappalab

    def defined(node) -> list[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]

    definitions, referenced = [], set()
    for path in sorted(Path(kappalab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = defined(node)
            definitions += [(f"{path.name}:{node.lineno}", name) for name in names]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):
                    ref = sub.attr
                elif isinstance(sub, ast.alias):
                    ref = sub.name
                else:
                    continue
                if ref not in names:
                    referenced.add(ref)
    unreferenced = [
        f"{where} {name}"
        for where, name in definitions
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert not unreferenced, unreferenced
