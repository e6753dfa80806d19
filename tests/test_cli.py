"""The batch front door: exit codes, reports, CSV sampling."""

import contextlib
import hashlib
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from itertools import takewhile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kappalab
from kappalab import (
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    QGrid,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    validate_regular_open,
)
from kappalab.basesets import basic_member
from kappalab.cli import _csv_num, main, shipped_scenarios
from kappalab.serialize import SchemaError, decode_family, decode_point, encode_roset


def test_the_program_runs_without_numpy():
    # a fresh interpreter, so that no test module has imported numpy already
    src = str(Path(kappalab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kappalab.cli; assert 'numpy' not in sys.modules, 'numpy was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_the_layer_tracer_installs_on_a_fresh_import():
    # perfbench/trace_layers.py wraps kappalab's functions by name: renaming or
    # deleting one of them fails here, and not only in the traced benchmark run
    root = Path(__file__).resolve().parent.parent
    src = str(Path(kappalab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, str(root / "perfbench"),
                                                                     os.environ.get("PYTHONPATH")])))
    code = "import kappalab.cli, trace_layers; trace_layers.install(trace_layers.Tracer())"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_shipped_corpus_is_present():
    names = shipped_scenarios()
    assert "niemytzki_kappa_full.json" in names
    assert "doublearrow_condition_d.json" in names
    assert len(names) >= 7


def test_small_scenario_runs_green(tmp_path):
    scenario = {
        "name": "mini",
        "plan": {"seed": 3, "n_points": 80, "n_set_pairs": 20, "n_sequences": 6},
        "checks": [
            {"check": "condition_1", "family": "sorgenfrey_kappa"},
            {"check": "refute", "target": "g-extend", "n": 1, "expect": "refuted"},
        ],
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(scenario))
    code = main(["check", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "mini.json").read_text())
    assert report["all_expected"] is True


def test_expected_fail_scenario_is_green(tmp_path):
    scenario = {
        "name": "expected_fail",
        "plan": {"seed": 3},
        "checks": [{"check": "condition_3_negative_control", "expect": "fail"}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path)]) == 0


def test_unexpected_verdict_exits_3(tmp_path):
    scenario = {
        "name": "surprise",
        "plan": {"seed": 3},
        "checks": [{"check": "condition_3_negative_control", "expect": "pass"}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path)]) == 3


def test_refute_entry_expects_refuted_by_default(tmp_path, capsys):
    # a refuter reports "refuted" or "not_found_at_budget", never "pass"
    scenario = {"name": "refute_default", "checks": [{"check": "refute", "target": "g-extend"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path)]) == 0
    assert "ok refute:g-extend: verdict=refuted expected=refuted" in capsys.readouterr().out


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--scenario", str(path)]) == 2


def test_unknown_fields_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "checks": [], "surprise": 1}))
    assert main(["check", "--scenario", str(path)]) == 2


def test_missing_scenario_file_exits_2():
    assert main(["check", "--scenario", "/nonexistent/path.json"]) == 2


def test_refute_subcommand(tmp_path):
    out = tmp_path / "bundle.json"
    code = main(["refute", "g-extend", "--n", "1", "--expect", "refuted", "--out", str(out)])
    assert code == 0
    bundle = json.loads(out.read_text())
    assert bundle["verdict"] == "refuted"
    assert main(["refute", "sorgenfrey-a", "--candidate", "clopen_only", "--expect", "refuted"]) == 3


def test_sample_grid_dimensions(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sample-grid",
            "--family",
            "niemytzki_kappa",
            "--set",
            '{"kind": "tangent_disc", "a": "0", "r": "1"}',
            "--bbox=-3/2,3/2,0,11/5",
            "--res",
            "300x220",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 300 * 220
    assert "0,0,1" in lines  # full value at the tangency point


def test_sample_grid_empty_bbox(tmp_path):
    out = tmp_path / "empty.csv"
    code = main(
        [
            "sample-grid",
            "--family",
            "niemytzki_kappa",
            "--set",
            '{"kind": "tangent_disc", "a": "0", "r": "1"}',
            "--bbox",
            "0,1,0,1",
            "--res",
            "0x0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == "x,y,value\n"


def test_sample_grid_values_match_library(tmp_path):
    out = tmp_path / "g.csv"
    main(
        [
            "sample-grid",
            "--family",
            "niemytzki_kappa",
            "--set",
            '{"kind": "interior_disc", "cx": "0", "cy": "2", "r": "1"}',
            "--bbox",
            "0,1,3/2,2",
            "--res",
            "4x2",
            "--out",
            str(out),
        ]
    )
    from fractions import Fraction as F

    from kappalab import InteriorDisc, NiemytzkiPoint, niemytzki_basic_f

    disc = InteriorDisc(F(0), F(2), F(1))
    for line in out.read_text().splitlines()[1:]:
        xs, ys, vs = line.split(",")
        v = niemytzki_basic_f(disc, NiemytzkiPoint(F(xs), F(ys)))
        assert abs(float(vs) - float(v)) < 1e-15


_BOUND = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@given(_BOUND, _BOUND | st.just(None), st.integers(0, 40), st.booleans())
def test_axis_coordinates_are_the_lattice_formula(lo, hi, n, use_float):
    from fractions import Fraction as F

    from kappalab.cli import _axis, _csv_num

    hi = lo if hi is None else hi  # a zero span
    expected = [lo + (hi - lo) * F(i, n) for i in range(n)]
    (nums, den), coords, floats = _axis(lo, hi, n, not use_float)
    assert [F(num, den) for num in nums] == expected
    assert [f.hex() for f in floats] == [float(c).hex() for c in expected]
    assert [_csv_num(f) for f in floats] == [_csv_num(c) for c in expected]
    if use_float:
        assert [c.hex() for c in coords] == [float(c).hex() for c in expected]
    else:
        assert coords == expected and all(type(c) is F for c in coords)


def test_scenario_seed_override_changes_reports(tmp_path):
    scenario = {
        "name": "seeded",
        "plan": {"seed": 5, "n_points": 60, "n_set_pairs": 10, "n_sequences": 4},
        "checks": [{"check": "condition_1", "family": "sorgenfrey_kappa"}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "seeded.json").read_text() == (
        tmp_path / "b" / "seeded.json"
    ).read_text()


def _schema_error(capsys, argv) -> bool:
    code = main(argv)
    return code == 2 and capsys.readouterr().err.startswith("schema error:")


def _rejected_before_any_check(tmp_path, capsys, monkeypatch, argv) -> bool:
    """Whether ``argv`` with an --out directory is a schema error that makes
    no directory and runs no check: every entry of every scenario is built
    before --out is made, and ``harness._run`` (spied on) is never called."""
    import kappalab.harness

    ran, run = [], kappalab.harness._run

    def counting_run(check_id, *args):
        ran.append(check_id)
        return run(check_id, *args)

    monkeypatch.setattr(kappalab.harness, "_run", counting_run)
    out = tmp_path / "out"
    return _schema_error(capsys, argv + ["--out", str(out)]) and not out.exists() and ran == []


def _grid_argv(tmp_path, bbox, res):
    # a bbox of two numbers is a Sorgenfrey lattice, of four a Niemytzki one
    if bbox.count(",") == 1:
        family, target = "sorgenfrey_kappa", '{"kind": "half_open", "a": "0", "b": "1"}'
    else:
        family, target = "niemytzki_kappa", '{"kind": "tangent_disc", "a": "0", "r": "1"}'
    return [
        "sample-grid",
        "--family",
        family,
        "--set",
        target,
        f"--bbox={bbox}",  # one argument each, so that a leading "-" is no option
        f"--res={res}",
        "--out",
        str(tmp_path / "g.csv"),
    ]


def test_sample_grid_malformed_res_exits_2(tmp_path, capsys):
    assert _schema_error(capsys, _grid_argv(tmp_path, "0,1,0,1", "3y3"))


def test_sample_grid_malformed_bbox_exits_2(tmp_path, capsys):
    assert _schema_error(capsys, _grid_argv(tmp_path, "0,foo,0,1", "3x3"))


@pytest.mark.parametrize(
    "bbox, res",
    [
        ("-1,1,-1,1", "4x4"),
        ("-1,1,-1/2,1", "4x1"),
        (f"-1,1,0,{10 ** 400}", "4x4"),
        (f"-{10 ** 400},1,0,1", "4x4"),
        ("-1,1,0,1", "-3x4"),
        ("-1,1,0,1", "3x-1"),
        ("-1,1", "-5"),
        (f"-{10 ** 400},1", "4"),
    ],
    ids=[
        "rows_below_the_axis",
        "the_one_row_below_the_axis",
        "y_too_large",
        "x_too_large",
        "negative_nx",
        "negative_ny",
        "negative_sorgenfrey_n",
        "sorgenfrey_x_too_large",
    ],
)
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sample_grid_lattice_outside_the_plane_exits_2(tmp_path, capsys, monkeypatch, mode, bbox, res):
    # decided before anything is written: a row below the axis is no Niemytzki
    # point, a coordinate beyond binary64 has no CSV text, and a negative
    # lattice size is no lattice
    monkeypatch.setenv("KAPPALAB_MODE", mode)
    assert _schema_error(capsys, _grid_argv(tmp_path, bbox, res))
    assert not (tmp_path / "g.csv").exists()


def test_sample_grid_rows_are_decided_from_the_lattice(tmp_path):
    # y0 + (y1 - y0) i/ny for i < ny: the one row of 0,-1 is y = 0
    assert main(_grid_argv(tmp_path, "-1,1,0,-1", "2x1")) == 0
    assert (tmp_path / "g.csv").read_text() == "x,y,value\n-1,0,0\n0,0,1\n"


def _scenario_argv(tmp_path, scenario):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    return ["check", "--scenario", str(path)]


def test_check_without_family_exits_2(tmp_path, capsys):
    scenario = {"name": "x", "checks": [{"check": "condition_1"}]}
    assert _schema_error(capsys, _scenario_argv(tmp_path, scenario))


def test_non_integer_plan_field_exits_2(tmp_path, capsys):
    scenario = {
        "name": "x",
        "plan": {"n_points": "x"},
        "checks": [{"check": "condition_1", "family": "sorgenfrey_kappa"}],
    }
    assert _schema_error(capsys, _scenario_argv(tmp_path, scenario))


@pytest.mark.parametrize(
    "entry",
    [
        {"check": "refute", "target": "g-extend", "n": "x"},
        {"check": "refute", "target": "niemytzki-strat", "n": 2.5},
        {"check": "condition_4", "family": "sorgenfrey_kappa", "chain": {"sampled": "2"}},
        {"check": "condition_d", "family": "sorgenfrey_kappa", "chain": {"sampled": 1.5}},
    ],
)
def test_non_integer_entry_counts_exit_2(tmp_path, capsys, entry):
    scenario = {"name": "x", "plan": {"seed": 3}, "checks": [entry]}
    assert _schema_error(capsys, _scenario_argv(tmp_path, scenario))


_SORGENFREY_1 = {"check": "condition_1", "family": "sorgenfrey_kappa"}


@pytest.mark.parametrize(
    "plan, entry",
    [
        ({"n_points": -5, "n_set_pairs": 0}, _SORGENFREY_1),
        ({"n_points": 0}, _SORGENFREY_1),
        ({"n_set_pairs": 0}, {"check": "condition_2", "family": "double_arrow_ro"}),
        ({"n_sequences": 0}, {"check": "condition_3", "family": "sorgenfrey_kappa"}),
        ({"grid_m": 0}, {"check": "condition_d", "family": "sorgenfrey_kappa"}),
        ({"chain_depth": 0}, {"check": "condition_4", "family": "sorgenfrey_kappa"}),
        ({"grid_m": 1}, {"check": "condition_d", "family": "sorgenfrey_kappa"}),
        ({"grid_m": 2}, {"check": "condition_d", "family": "sorgenfrey_kappa"}),
        ({"grid_m": 2}, {"check": "bridge_4_iff_d", "family": "sorgenfrey_kappa"}),
        ({}, {"check": "condition_4", "family": "sorgenfrey_kappa", "chain": {"sampled": 0}}),
        ({}, {"check": "refute", "target": "niemytzki-strat", "n": 0}),
        ({}, {"check": "refute", "target": "g-extend", "n": -1}),
    ],
    ids=[
        "n_points_negative",
        "n_points_0",
        "n_set_pairs_0",
        "n_sequences_0",
        "grid_m_0",
        "chain_depth_0",
        "condition_d_grid_m_1",
        "condition_d_grid_m_2",
        "bridge_grid_m_2",
        "sampled_0",
        "refute_n_0",
        "refute_n_negative",
    ],
)
def test_budgets_below_1_exit_2(tmp_path, capsys, monkeypatch, plan, entry):
    # a budget of 0 would run no samples and pass
    scenario = {"name": "x", "plan": plan, "checks": [entry]}
    assert _rejected_before_any_check(tmp_path, capsys, monkeypatch, _scenario_argv(tmp_path, scenario))


@pytest.mark.parametrize("count", [60, -3])
def test_condition_3_entry_with_n_certificates_exits_2(tmp_path, capsys, monkeypatch, count):
    # condition 3 certifies plan.n_sequences sequences; an entry sets no count
    entry = {"check": "condition_3", "family": "sorgenfrey_kappa", "n_certificates": count}
    scenario = {"name": "x", "plan": {"n_sequences": 60}, "checks": [entry]}
    assert _rejected_before_any_check(tmp_path, capsys, monkeypatch, _scenario_argv(tmp_path, scenario))


def _explicit_chain(a, b, space="sorgenfrey", **fields):
    chain = {"space": space, "components": [{"kind": "half_open", "a": a, "b": b}], **fields}
    return {"check": "condition_4", "family": "sorgenfrey_kappa", "chain": chain}


def _disc_chain(r):
    """A condition 4 entry whose one interior-disc lane has the radius ``r``
    and the centre (1/(8(n+1)), 1)."""
    lane = {"kind": "interior_disc", "cx": {"const": "0", "over_n": "1/8", "shift": 1}, "cy": "1", "r": r}
    return {"check": "condition_4", "family": "niemytzki_kappa", "chain": {"space": "niemytzki", "components": [lane]}}


def _user_table_set(target, samples=()):
    """A condition 1 entry whose user-family table has one row for ``target``."""
    row = {"set": target, "samples": list(samples)}
    return {"check": "condition_1", "family": {"label": "user_supplied", "space": target["space"], "table": [row]}}


def _user_table(table, space="niemytzki"):
    """A condition 1 entry whose user family has the given ``table``."""
    return {"check": "condition_1", "family": {"label": "user_supplied", "space": space, "table": table}}


_TABLE_DISC = {"kind": "tangent_disc", "a": "0", "r": "1"}
_TABLE_POINT = {"space": "niemytzki", "x": "0", "y": "1"}
_DA_CLOPEN = {"kind": "clopen_interval", "a": "0", "b": "1/2"}


def _da_set(*components):
    return {"space": "double_arrow", "components": list(components)}


_DA_SET = _da_set(_DA_CLOPEN)


def _da_sample(side):
    return {"point": {"space": "double_arrow", "t": "1/4", "side": side}, "value": "1/2"}


_CONDITION_2 = {"check": "condition_2", "family": "sorgenfrey_kappa"}
_BINARY64_R = {"const": 0.5, "over_n": 0.25}


def _binary64_chain(lane):
    """A condition 4 entry whose one Niemytzki lane ``lane`` is binary64."""
    return {"check": "condition_4", "family": "niemytzki_kappa", "chain": {"space": "niemytzki", "components": [lane]}}


def _da_chain(**flags):
    """A condition 4 entry whose one double arrow lane [(0,1), (1/2 + 1/(4n), 0)] carries ``flags``."""
    lane = {"kind": "clopen_interval", "a": "0", "b": {"const": "1/2", "over_n": "1/4"}, **flags}
    return {"check": "condition_4", "family": "double_arrow_ro", "chain": {"space": "double_arrow", "components": [lane]}}


@pytest.mark.parametrize(
    "scenario",
    [
        {"name": "x", "plan": 5, "checks": []},
        {"name": "x", "checks": 5},
        {"name": "x", "checks": [5]},
        # a_n = 1/(4n) decreases, so the elements grow instead of nesting
        {"name": "x", "checks": [_explicit_chain({"const": "0", "over_n": "1/4"}, "1")]},
        {"name": "x", "checks": [_explicit_chain("1", "0")]},
        {"name": "x", "checks": [_explicit_chain("0", "1", space="niemytzki")]},
        {"name": "x", "checks": [dict(_explicit_chain("0", "1"), family="niemytzki_kappa")]},
        {
            "name": "x",
            "checks": [dict(_explicit_chain("0", "1"), chain={"space": "sorgenfrey", "components": 5})],
        },
        {
            "name": "x",
            "checks": [
                {
                    "check": "condition_1",
                    "family": {
                        "label": "user_supplied",
                        "space": "sorgenfrey",
                        "table": [{"set": {"space": "sorgenfrey", "components": 5}, "samples": []}],
                    },
                }
            ],
        },
        {
            "name": "x",
            "checks": [
                _user_table_set(
                    {"space": "niemytzki", "components": [{"kind": "interior_disc", "cx": "0", "cy": "1", "r": "1"}]}
                )
            ],
        },
        {
            "name": "x",
            "checks": [
                _user_table_set({"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "1", "b": "0"}]})
            ],
        },
        {
            "name": "x",
            "checks": [
                _user_table_set(
                    {"space": "niemytzki", "components": [{"kind": "tangent_disc", "a": "0", "r": "1"}]},
                    [{"point": {"space": "niemytzki", "x": "0", "y": "-1"}, "value": "1"}],
                )
            ],
        },
        {
            "name": "x",
            "checks": [
                _user_table_set(
                    {"space": "double_arrow", "components": [{"kind": "clopen_interval", "a": "0", "b": "1/2"}]},
                    [{"point": {"space": "double_arrow", "t": "1/4", "side": 7}, "value": "1"}],
                )
            ],
        },
        {
            "name": "x",
            "checks": [
                {
                    "check": "condition_1",
                    "family": {
                        "label": "user_supplied",
                        "space": "niemytzki",
                        "table": [
                            {
                                "set": {"kind": "interior_disc", "cx": "0", "cy": "1", "r": "1"},
                                "samples": [{"point": {"space": "niemytzki", "x": "0", "y": "1"}, "value": "1"}],
                            }
                        ],
                    },
                }
            ],
        },
        {"name": "x", "checks": [_explicit_chain("0", "1", depth=[1])]},
        {"name": "x", "checks": [_explicit_chain("0", "1", depth=2.5)]},
        {"name": "x", "checks": [_explicit_chain("0", "1", depth=True)]},
        {"name": "x", "checks": [_explicit_chain("0", {"const": "1", "over_n": "1", "shift": [1]})]},
        {
            "name": "x",
            "checks": [
                dict(
                    _explicit_chain("0", "1"),
                    chain={"space": "sorgenfrey", "components": [{"kind": ["half_open"], "a": "0", "b": "1"}]},
                )
            ],
        },
        # the lane [0, 1 + 1/n) has limit [0, 1), not the declared [0, 2)
        {
            "name": "x",
            "checks": [
                _explicit_chain(
                    "0",
                    {"const": "1", "over_n": "1"},
                    limit={"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "0", "b": "2"}]},
                )
            ],
        },
        {"name": "x", "checks": [_user_table(5)]},
        {"name": "x", "checks": [_user_table([5])]},
        {"name": "x", "checks": [_user_table([{"set": _TABLE_DISC, "samples": 5}])]},
        {"name": "x", "checks": [_user_table([{"set": _TABLE_DISC, "samples": [5]}])]},
        {"name": "x", "checks": [_user_table([{"set": _TABLE_DISC, "samples": [{"point": _TABLE_POINT}]}])]},
        {"name": "x", "checks": [_user_table([{"set": {"kind": "half_open", "a": "0", "b": "1"}, "samples": []}])]},
        {"name": "x", "checks": [_explicit_chain("0", "1", depth=0)]},
        {
            "name": "x",
            "plan": {"chain_depth": 0},
            "checks": [{"check": "condition_4", "family": "sorgenfrey_kappa"}],
        },
        {"name": "x", "checks": [_user_table_set(_DA_SET, [_da_sample(True)])]},
        {"name": "x", "checks": [_user_table_set(_DA_SET, [_da_sample(1.0)])]},
        {"name": "x", "checks": [_user_table_set(_da_set({"kind": "extreme_singleton", "side": True}))]},
        {"name": "x", "checks": [_user_table_set(_da_set(dict(_DA_CLOPEN, include_left_extreme="no")))]},
        {"name": "x", "checks": [_user_table_set(_da_set(dict(_DA_CLOPEN, include_left_extreme=1)))]},
        {"name": "x", "checks": [_da_chain(include_left_extreme="no")]},
        {"name": "x", "checks": [_da_chain(include_left_extreme=1)]},
        {"name": "../escape", "checks": [_SORGENFREY_1]},
        {"name": "sub/c", "checks": [_SORGENFREY_1]},
        {"name": 5, "checks": [_SORGENFREY_1]},
        {"name": "..", "checks": [_SORGENFREY_1]},
        {"name": "x", "checks": [dict(_SORGENFREY_1, expect="passs")]},
        {"name": "x", "checks": [{"check": "refute", "target": "g-extend", "expect": "pass"}]},
        {
            "name": "x",
            "checks": [
                {
                    "check": "condition_2",
                    "family": "sorgenfrey_kappa",
                    "target": "g-extend",
                    "chain": "pinch",
                    "n": 3,
                    "candidate": "right_gap",
                }
            ],
        },
        {"name": "x", "checks": [dict(_SORGENFREY_1, chain={"sampled": 2})]},
        # [0, 1 - 1/n + 100/n^2) shrinks to [0, 399/400) at n = 200 and grows back
        {"name": "x", "checks": [_explicit_chain("0", {"const": "1", "over_n": "-1", "over_n2": "100"})]},
        # nested at every n (the centre moves by less than the radius falls), but
        # the moving parameters of a disc lane must share one shift
        {"name": "x", "checks": [_disc_chain(r={"const": "1/4", "over_n": "1/8"})]},
        {"name": "x", "checks": [_user_table([{"set": {"kind": "tangent_disc", "a": 0.5, "r": 0.5}, "samples": [
            {"point": {"space": "niemytzki", "x": 0.5, "y": 0.25}, "value": 0.25}]}])]},
        # element 1, B((1/16, 1), 1), touches the axis at a point it leaves out
        {"name": "x", "checks": [_disc_chain(r={"const": "1/2", "over_n": "1", "shift": 1})]},
        {"name": "x", "checks": [{"check": "condition_4", "family": "g_family", "chain": {"sampled": 3}}]},
        {"name": "x", "checks": [{"check": "condition_d", "family": "g_family", "chain": {"sampled": 3}}]},
        {"name": "x", "checks": [{"check": "bridge_4_iff_d", "family": "g_family", "chain": {"sampled": 3}}]},
        # an exact rational is an integer or p/q, and nothing else Fraction() reads
        {"name": "x", "checks": [_explicit_chain("0", "1e0")]},
        {"name": "x", "checks": [_explicit_chain("0", "0.5")]},
        {"name": "x", "checks": [_explicit_chain("0", " 1/2")]},
        {"name": "x", "checks": [_explicit_chain("0", "1_0")]},
        {"name": "x", "checks": [_user_table([{"set": _TABLE_DISC, "samples": [
            {"point": {"space": "niemytzki", "x": "0", "y": "5e-1"}, "value": "1/2"}]}])]},
        # a later entry's schema error comes before the earlier entry runs
        {"name": "x", "checks": [_CONDITION_2, {"check": "condition_1", "family": "no_such"}]},
        {"name": "x", "checks": [_CONDITION_2, {"check": "condition_4", "family": "g_family", "chain": {"sampled": 3}}]},
        # the checks sample and decide on exact chains only
        {"name": "x", "checks": [_binary64_chain({"kind": "tangent_disc", "a": 0.5, "r": _BINARY64_R})]},
        {"name": "x", "checks": [_binary64_chain({"kind": "interior_disc", "cx": 0.5, "cy": 2.0, "r": _BINARY64_R})]},
        # a refute field the target does not read
        {"name": "x", "checks": [{"check": "refute", "target": "g-extend", "candidate": "bogus"}]},
        {"name": "x", "checks": [{"check": "refute", "target": "niemytzki-strat", "candidate": "characteristic"}]},
        {"name": "x", "checks": [{"check": "refute", "target": "doublearrow-d", "n": 7}]},
        {"name": "x", "checks": [{"check": "refute", "target": "sorgenfrey-a", "n": 1}]},
        {"name": "x", "checks": [{"check": "refute", "target": "sorgenfrey-a", "candidate": ["right_gap"]}]},
        {"name": "x", "checks": [{"check": "refute", "target": ["g-extend"]}]},
        # one set in two rows, written two ways: the verdict would hang on row order
        {"name": "x", "checks": [_user_table([
            {"set": {"kind": "half_open", "a": "0", "b": "1"}, "samples": [
                {"point": {"space": "sorgenfrey", "x": "1/2"}, "value": "1/2"}]},
            {"set": {"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "0", "b": "1"}]}, "samples": [
                {"point": {"space": "sorgenfrey", "x": "1/2"}, "value": "0"}]},
        ], space="sorgenfrey")]},
    ],
    ids=[
        "plan_not_object",
        "checks_not_list",
        "check_not_object",
        "chain_not_nested",
        "chain_a_above_b",
        "chain_lane_in_another_space",
        "chain_space_differs_from_family",
        "chain_components_not_list",
        "set_components_not_list",
        "union_not_regular_open",
        "table_row_a_above_b",
        "table_point_below_the_axis",
        "table_point_side_not_0_or_1",
        "bare_table_set_not_regular_open",
        "chain_depth_not_integer",
        "chain_depth_fractional",
        "chain_depth_bool",
        "lane_shift_not_integer",
        "chain_lane_kind_not_a_string",
        "chain_limit_not_the_lanes_limit",
        "table_not_a_list",
        "table_row_not_an_object",
        "samples_not_a_list",
        "sample_not_an_object",
        "sample_without_value",
        "table_row_in_another_space",
        "chain_depth_0",
        "plan_chain_depth_0",
        "table_point_side_bool",
        "table_point_side_float",
        "extreme_singleton_side_bool",
        "extreme_flag_string",
        "extreme_flag_integer",
        "chain_lane_extreme_flag_string",
        "chain_lane_extreme_flag_integer",
        "name_escapes_the_out_directory",
        "name_in_a_subdirectory",
        "name_not_a_string",
        "name_dot_dot",
        "expect_not_a_verdict",
        "refute_expect_not_a_refute_verdict",
        "condition_2_with_refute_and_chain_fields",
        "condition_1_with_a_chain",
        "lane_grows_back_after_n_200",
        "disc_lane_with_two_shifts",
        "table_set_binary64",
        "chain_element_1_not_regular_open",
        "g_family_condition_4_sampled_chain",
        "g_family_condition_d_sampled_chain",
        "g_family_bridge_sampled_chain",
        "rational_with_an_exponent",
        "rational_with_a_decimal_point",
        "rational_with_a_space",
        "rational_with_an_underscore",
        "table_point_with_an_exponent",
        "unknown_family_after_a_check",
        "g_family_sampled_chain_after_a_check",
        "chain_binary64_tangent_disc",
        "chain_binary64_interior_disc",
        "refute_candidate_on_g_extend",
        "refute_candidate_on_niemytzki_strat",
        "refute_n_on_doublearrow_d",
        "refute_n_on_sorgenfrey_a",
        "refute_candidate_not_a_string",
        "refute_target_not_a_string",
        "table_lists_a_set_twice",
    ],
)
def test_malformed_scenario_exits_2(tmp_path, capsys, monkeypatch, scenario):
    assert _rejected_before_any_check(tmp_path, capsys, monkeypatch, _scenario_argv(tmp_path, scenario))


def test_corpus_schema_error_exits_2_before_any_check(tmp_path, capsys, monkeypatch):
    # grid_m 1 leaves condition (d) no grid pair; the first scenario's
    # condition 4 entries come before its condition (d) entry
    argv = ["check", "--corpus", "--grid-m", "1"]
    assert _rejected_before_any_check(tmp_path, capsys, monkeypatch, argv)


def test_scenario_name_cannot_leave_the_out_directory(tmp_path, capsys):
    out = tmp_path / "out"
    argv = _scenario_argv(tmp_path, {"name": "../escape", "checks": [_SORGENFREY_1]})
    assert _schema_error(capsys, argv + ["--out", str(out)])
    assert not (tmp_path / "escape.json").exists() and not out.exists()


def test_user_table_row_without_samples_exits_2(tmp_path, capsys):
    # nearest-sample evaluation has nothing to read on such a row
    entry = _user_table_set({"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "0", "b": "1"}]})
    assert _schema_error(capsys, _scenario_argv(tmp_path, {"name": "x", "checks": [entry]}))


@pytest.mark.parametrize("x", [-5e-10, 0.9999999995])
def test_sorgenfrey_point_with_a_binary64_coordinate_exits_2(tmp_path, capsys, x):
    # the Sorgenfrey line is exact-only; within EPS, -5e-10 would read as a
    # member of [0, 1) with value 1 and 0.9999999995 as outside it
    with pytest.raises(SchemaError):
        decode_point({"space": "sorgenfrey", "x": x})
    target = {"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "0", "b": "1"}]}
    entry = _user_table_set(target, [{"point": {"space": "sorgenfrey", "x": x}, "value": "1"}])
    assert _schema_error(capsys, _scenario_argv(tmp_path, {"name": "x", "checks": [entry]}))


def test_sample_grid_union_uses_the_named_family(tmp_path):
    # the g family scores 1 at the tangency point, for a union as for its one base set
    disc = {"kind": "tangent_disc", "a": "0", "r": "1/2"}
    csvs = []
    for name, target in (("base", disc), ("union", {"space": "niemytzki", "components": [disc]})):
        out = tmp_path / f"{name}.csv"
        argv = ["sample-grid", "--family", "g_family", "--set", json.dumps(target)]
        assert main(argv + ["--bbox", "0,1/2,0,1/2", "--res", "2x2", "--out", str(out)]) == 0
        csvs.append(out.read_text())
    assert "0,0,1" in csvs[0].splitlines()
    assert csvs[1] == csvs[0]


@pytest.mark.parametrize(
    "family, target, bbox, res",
    [
        ("g_family", '{"kind": "interior_disc", "cx": "0", "cy": "2", "r": "1"}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "half_open", "a": "0", "b": "1"}', "0,1,0,1", "3x3"),
        ("sorgenfrey_kappa", '{"kind": "open_interval", "a": "0", "b": "1"}', "0,1", "3"),
        ("niemytzki_kappa", '{"kind": "interior_disc", "cx": "0", "cy": "1", "r": "2"}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "interior_disc", "cx": "0", "cy": "1", "r": "1"}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", "5", "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "tangent_disc", "a": "0", "r": 1.0}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "tangent_disc", "a": NaN, "r": 1.0}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "interior_disc", "cx": -Infinity, "cy": 1.0, "r": 0.5}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "tangent_disc", "a": "0", "r": "1e0"}', "0,1,0,1", "3x3"),
        ("niemytzki_kappa", '{"kind": "tangent_disc", "a": "0", "r": "1"}', "0,1,0,1e0", "3x3"),
        ("niemytzki_kappa", '{"kind": "tangent_disc", "a": "0", "r": "1"}', "0,0.5,0,1", "3x3"),
        ("sorgenfrey_kappa", '{"kind": "half_open", "a": "0", "b": "1"}', "0, 1", "3"),
    ],
    ids=[
        "g_family_interior_disc",
        "set_in_another_space",
        "sorgenfrey_open_interval",
        "interior_disc_r_above_cy",
        "interior_disc_r_equal_cy",
        "set_not_an_object",
        "set_mixes_exact_and_float",
        "set_coordinate_nan",
        "set_coordinate_infinite",
        "set_rational_with_an_exponent",
        "bbox_rational_with_an_exponent",
        "bbox_rational_with_a_decimal_point",
        "bbox_rational_with_a_space",
    ],
)
def test_sample_grid_set_the_family_cannot_index_exits_2(tmp_path, capsys, family, target, bbox, res):
    argv = ["sample-grid", "--family", family, "--set", target, "--bbox", bbox, "--res", res]
    assert _schema_error(capsys, argv + ["--out", str(tmp_path / "g.csv")])


@pytest.mark.parametrize(
    "argv",
    [
        ["refute", "doublearrow-d", "--depth", "0"],
        ["refute", "g-extend", "--n", "0"],
        ["refute", "niemytzki-strat", "--n", "0"],
        ["refute", "niemytzki-strat", "--n", "-2"],
        ["check", "--corpus", "--depth", "0"],
        ["check", "--corpus", "--grid-m", "0"],
    ],
    ids=[
        "refute_depth_0",
        "refute_g_extend_n_0",
        "refute_niemytzki_strat_n_0",
        "refute_niemytzki_strat_n_negative",
        "corpus_depth_0",
        "corpus_grid_m_0",
    ],
)
def test_counts_below_1_exit_2(capsys, argv):
    assert _schema_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["refute", "doublearrow-d", "--depth", "64"],
        ["refute", "niemytzki-strat", "--depth", "7"],
        ["check", "--corpus", "--depth", "64"],
        ["refute", "no-such-target"],
        ["check", "--grid-m", "x"],
        ["sample-grid", "--family", "niemytzki_kappa", "--set", '{"kind": "tangent_disc", "a": "0", "r": "1"}',
         "--bbox=-1,1,0,1", "--res", "4x4", "--out", "{tmp}/no/such/dir/x.csv"],
        ["sample-grid", "--family", "niemytzki_kappa", "--set", '{"kind": "tangent_disc", "a": "0", "r": "1"}',
         "--bbox=-1,1,0,1", "--res", "4x4", "--out", "{tmp}"],
        ["refute", "g-extend", "--out", "{tmp}/no/such/dir/x.json"],
        ["check", "--scenario", "{tmp}/s.json", "--out", "{tmp}/s.json"],
        ["check", "--corpus", "--scenario", "{tmp}/s.json"],
        ["refute", "doublearrow-d", "--n", "7"],
        ["refute", "sorgenfrey-a", "--n", "2"],
        ["refute", "g-extend", "--candidate", "right_gap"],
        ["refute", "niemytzki-strat", "--candidate", "characteristic"],
    ],
    ids=[
        "refute_doublearrow_d_depth",
        "refute_niemytzki_strat_depth",
        "check_corpus_depth",
        "refute_target",
        "grid_m_not_an_integer",
        "sample_grid_out_in_a_missing_directory",
        "sample_grid_out_is_a_directory",
        "refute_out_in_a_missing_directory",
        "check_out_is_a_file",
        "check_corpus_and_scenario",
        "refute_doublearrow_d_n",
        "refute_sorgenfrey_a_n",
        "refute_g_extend_candidate",
        "refute_niemytzki_strat_candidate",
    ],
)
def test_malformed_command_line_exits_2(tmp_path, capsys, argv):
    # chains are decided for every n, so no command takes a truncation depth;
    # a command line is input like a scenario file, and fails the same way.
    # An --out the command cannot write is one too, and leaves no file behind.
    scenario = json.dumps({"name": "s", "checks": [{"check": "condition_3_negative_control", "expect": "fail"}]})
    (tmp_path / "s.json").write_text(scenario)
    assert _schema_error(capsys, [arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]
    assert (tmp_path / "s.json").read_text() == scenario


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("source", ["corpus", "scenario"])
def test_check_out_that_is_no_directory_exits_2_before_any_check(tmp_path, capsys, monkeypatch, source, out):
    # the --out directory is made, or rejected under the name it was given,
    # before the first check of the first scenario runs
    import kappalab.harness

    def no_check(*args):
        raise RuntimeError("a check ran")

    monkeypatch.setattr(kappalab.harness, "_run", no_check)
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / out)
    if source == "corpus":
        argv = ["check", "--corpus"]
    else:
        argv = _scenario_argv(tmp_path, {"name": "x", "checks": [_SORGENFREY_1]})
    assert main(argv + ["--out", out]) == 2
    assert f"cannot write --out {out!r}:" in capsys.readouterr().err


def test_condition_d_at_grid_m_64_builds_no_grid(tmp_path, capsys, monkeypatch):
    # the pairs read four of the 2^64 - 1 grid values, from their indices
    reads, value = [], QGrid.value

    def counting_value(grid, k):
        reads.append(k)
        return value(grid, k)

    monkeypatch.setattr(QGrid, "value", counting_value)
    entry = {"check": "condition_d", "family": "double_arrow_ro", "chain": "pinch", "expect": "fail"}
    assert main(_scenario_argv(tmp_path, {"name": "x", "plan": {"grid_m": 64}, "checks": [entry]})) == 0
    assert "ok condition_d:double_arrow_ro:0: verdict=fail" in capsys.readouterr().out
    assert len(reads) == 4


#: sha256 of each corpus report (``check --corpus --out``) by plan seed
#: override: any change to a verdict, a witness, a count or the report
#: format changes a hash
_CORPUS_REPORTS = {
    None: {
        "condition4_chains": "00618ec06aad1357626ae2063f70e7d549d1b6cfb832677e61309a97f70b0eb1",
        "continuity_negative_control": "82b6be11f18d808d898efd83be7825e17b17b77fd840b8247b0a099a4955e5e1",
        "doublearrow_condition_d": "e689a2a6f964883445737df79a6b2de3c650d622105ec5b72750077b501806de",
        "doublearrow_ro_full": "cb57671a975e86e8a707ddccbcc246ae11493502969e11217492018baf10f609",
        "g_family_checks": "bb4fdd80532b590fd899167810667e25a25337f5e954aed2a44044caa1325fd6",
        "niemytzki_kappa_full": "4eed1f445eab68a5c51553cb160921cab280910c0eacf920ec4e1f2d10cff25d",
        "refuters": "d6a33abe9d4bc28b67162bf7fd380f53bcff173550ec3a008eaa41cdba21d867",
        "separations": "b14351c0226b24702a1cae7ce0d44f243a9502fd91cc6a6bc0eb6484e8bf9a9f",
        "sorgenfrey_kappa_full": "cc72aadcde7dc597213e0dffcd189b3cb97486de9754b996f646d7c18519e190",
    },
    99: {
        "condition4_chains": "e38c9b61a2ab6a09b1c74f84f2e4724d7121e473ff780b0302393bd0daa1972f",
        "continuity_negative_control": "8ad66316ab739b27eb8c6c0c46921f92e400bde062b5b01db762eb522b2db9c3",
        "doublearrow_condition_d": "f5d767899dd7d4103bd1872f8cc217dd1fbf833e9a577138f2ec4f563f9008c1",
        "doublearrow_ro_full": "7734fd7d75fd4121c0b95b8130edfd272572cd0010b85ae9a6f7c1584afd5cf4",
        "g_family_checks": "bf6eb7bdba976aa01e77be96b5dc79d2574d9bd09c268a20ae059e024c20d274",
        "niemytzki_kappa_full": "220931bbac2cb36670e2901b6d26e7824f693aaf0a87e07cfc34f8841c0fb0b5",
        "refuters": "7e321baa15de4586016c9df6f5e2bb972dfe102228427705b6a5c9b4da967b83",
        "separations": "04dc31d06750ef475f2f42077af0ea042ff7ae8960133f979853639a4808cf90",
        "sorgenfrey_kappa_full": "2e6b8aa244b58af7e00d616315f0bfbab5986f03fa14a86dcca9443262bda45a",
    },
    8: {
        "condition4_chains": "8e1847d2b0ee28035c664da4a4f5b805b74704e757ca5c4c06f16ff41946b817",
        "continuity_negative_control": "bf76254e3f59d8f8db0803e5df035e3838da9abec3fb99faf25d92e421fc0186",
        "doublearrow_condition_d": "2335f37eb00a9089d820bdf3ec23ece9c027992d0564c7326e83c205104400b1",
        "doublearrow_ro_full": "cf2071e4302aac1bbffba240b7d98e5a06c16f923a7dc5ee200fc849bbe7231f",
        "g_family_checks": "9cc73cb36975960089492a4bf7245e101bccfc0c3cb67986fce25d1746e8416b",
        "niemytzki_kappa_full": "b084eb40113b60f9efe668de8639ba91c0d955a22b09504b001dc30d2a0b7787",
        "refuters": "225a31f3662c51fcc1649962e5e3b3d32d8e59b9169a2e63724595c3cbceca15",
        "separations": "ee171873aefc44220c1c0f88a3703ea77760a4bf99c776855ea208daf008c9a9",
        "sorgenfrey_kappa_full": "69abeb508e07bd364986e251fce09e1cf1e8633f10b2bef3f6bc3c50a773662b",
    },
}


def _corpus_digests(tmp_path, monkeypatch, seed, pooled=True) -> dict:
    """The sha256 of each report of ``check --corpus`` at plan seed ``seed``;
    unless ``pooled``, of ``check --scenario`` on each shipped scenario alone."""
    monkeypatch.delenv("KAPPALAB_MODE", raising=False)  # the refuters report exact bundles
    seed_argv = ["--seed", str(seed)] if seed is not None else []
    if pooled:
        assert main(["check", "--corpus", "--out", str(tmp_path)] + seed_argv) == 0
    for name in [] if pooled else shipped_scenarios():
        path = Path(kappalab.__file__).parent / "scenarios" / name
        assert main(["check", "--scenario", str(path), "--out", str(tmp_path)] + seed_argv) == 0
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.glob("*.json")
    }


@pytest.mark.parametrize("seed", list(_CORPUS_REPORTS), ids=["shipped_seeds", "seed_99", "seed_8"])
def test_corpus_report_bytes_are_pinned(tmp_path, monkeypatch, seed):
    assert _corpus_digests(tmp_path, monkeypatch, seed) == _CORPUS_REPORTS[seed]


#: a g family scenario with one entry of each chain kind on the explicit chain
#: B*(0, 1/2 + 1/(4n)): the g family has no closed-form chain limit, so its
#: condition 4 takes the element scan
_G_CHAIN = {"space": "niemytzki", "components": [
    {"kind": "tangent_disc", "a": "0", "r": {"const": "1/2", "over_n": "1/4"}}]}
_G_CHAIN_SCENARIO = {"name": "g_chain", "plan": {"seed": 1}, "checks": [
    {"check": kind, "family": "g_family", "chain": _G_CHAIN}
    for kind in ("condition_4", "condition_d", "bridge_4_iff_d")]}


def test_g_family_chain_scenario_report_is_pinned(tmp_path):
    argv = _scenario_argv(tmp_path, _G_CHAIN_SCENARIO) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "out" / "g_chain.json").read_bytes()).hexdigest()
    assert digest == "e4353c6ca085c21a4b1ecab37e06b7bbd70cbd92be89ac8fe2899534ebb49c5e"


def _on_cores(monkeypatch, cores):
    """Run ``check`` as on a host with ``cores`` usable cores."""
    import kappalab.cli

    monkeypatch.setattr(kappalab.cli, "_usable_cores", lambda: cores)


def _counting(monkeypatch, calls, owner, name, key=None, when=lambda: True):
    """Spy on ``owner.name``: append ``key(*args)`` to ``calls`` on each
    call that ``when()`` allows."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        if when():
            calls.append(key(*args) if key else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_chain_entries_bind_each_chain_once(tmp_path, monkeypatch):
    # each entry binds its chain at build time, on the interior and the
    # INF_SCAN elements (the g family has no closed-form chain limit), and
    # its checks, condition (d) and the bridge included, read those bindings
    # alone: 3 * (1 + 64) binds; 3 * 64 elements built, 6 more for element 1
    from kappalab.families import Stratification
    from kappalab.rosets import DecreasingChain

    _on_cores(monkeypatch, 1)  # the spies see every case
    elements, binds = [], []
    _counting(monkeypatch, elements, DecreasingChain, "at")
    _counting(monkeypatch, binds, Stratification, "at")
    assert main(_scenario_argv(tmp_path, _G_CHAIN_SCENARIO)) == 0
    assert len(elements) <= 200 and len(binds) <= 195, (len(elements), len(binds))


def test_corpus_builds_no_approximation(monkeypatch):
    # condition (d) and the bridge decide W_p = {f_W > p} on the entry's
    # bound chain: no check of the corpus builds an approximation
    import kappalab.approximations

    _on_cores(monkeypatch, 1)  # the spy sees every case
    built, to_approx = [], kappalab.approximations.stratification_to_approximation
    for module in [m for name, m in sys.modules.items() if name.startswith("kappalab")]:
        if vars(module).get("stratification_to_approximation") is to_approx:
            _counting(monkeypatch, built, module, "stratification_to_approximation")
    assert main(["check", "--corpus"]) == 0
    assert built == []


def test_corpus_witnesses_replay(tmp_path):
    # every witness the shipped corpus writes, the two inner reports of each
    # bridge result included, replays true through its check's own predicate
    from collections import Counter

    from kappalab.harness import replay_witness

    witnesses = []
    for seed in _CORPUS_REPORTS:
        out = tmp_path / str(seed)
        assert main(["check", "--corpus", "--out", str(out)] + (["--seed", str(seed)] if seed is not None else [])) == 0
        for path in sorted(out.glob("*.json")):
            for result in json.loads(path.read_text())["results"]:
                report = result["report"]
                for rep in (report, report.get("condition_4", {}), report.get("condition_d", {})):
                    witnesses += rep.get("witnesses", [])
    assert Counter(w["kind"] for w in witnesses) == {"condition_3": 3, "condition_4": 22, "condition_d": 43}
    assert all(replay_witness(w) for w in witnesses)


def test_corpus_computes_each_chain_interior_once(tmp_path, monkeypatch):
    import kappalab.cli
    import kappalab.rosets
    from kappalab.families import Stratification

    _on_cores(monkeypatch, 1)  # the spies see every case
    depth, interiors, values = [0], [], []
    for name in ("check_condition_4", "check_condition_d", "bridge_4_iff_d"):
        check = getattr(kappalab.cli, name)

        def in_chain_check(*args, check=check):
            depth[0] += 1
            try:
                return check(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(kappalab.cli, name, in_chain_check)
    # every module that binds the rule is spied on; the chains are kept, so
    # that no two of them share an id
    interior = kappalab.rosets.decreasing_chain_interior
    for module in [m for name, m in sys.modules.items() if name.startswith("kappalab")]:
        if vars(module).get("decreasing_chain_interior") is interior:
            _counting(monkeypatch, interiors, module, "decreasing_chain_interior", key=lambda chain: chain)
    _counting(monkeypatch, values, Stratification, "value", when=lambda: depth[0] > 0)
    assert main(["check", "--corpus"]) == 0
    assert len(interiors) == len({id(chain) for chain in interiors}) <= 67
    assert values == []


_TANGENT = '{"kind": "tangent_disc", "a": "0", "r": "1"}'
_SEPARATED_UNION = (
    '{"space": "niemytzki", "components": ['
    '{"kind": "tangent_disc", "a": "-3/4", "r": "1/2"}, '
    '{"kind": "interior_disc", "cx": "3/4", "cy": "1", "r": "1/2"}]}'
)
_OVERLAPPING_UNION = (
    '{"space": "niemytzki", "components": ['
    '{"kind": "tangent_disc", "a": "0", "r": "1/4"}, '
    '{"kind": "interior_disc", "cx": "0", "cy": "1/2", "r": "1/2"}, '
    '{"kind": "interior_disc", "cx": "1/2", "cy": "1", "r": "1/2"}]}'
)
_G_TANGENT = '{"kind": "tangent_disc", "a": "1/3", "r": "3/4"}'
_SORGENFREY_UNION = (
    '{"space": "sorgenfrey", "components": ['
    '{"kind": "half_open", "a": "-3/2", "b": "-1/3"}, '
    '{"kind": "half_open", "a": "0", "b": "5/2"}]}'
)
_INTERIOR = '{"kind": "interior_disc", "cx": "1/3", "cy": "5/4", "r": "3/4"}'
_BINARY64_TANGENT = '{"kind": "tangent_disc", "a": 0.1, "r": 0.7}'
#: r = 5s, s = 1/12: on the rows y = s and 2s the chord root sqrt(2yr - y^2)
#: is 3s and 4s, and the circle crosses those rows at the columns a +- 4s and
#: a +- 3s of a lattice s/3 apart through x = a
_PYTHAGOREAN_TANGENT = '{"kind": "tangent_disc", "a": "1/3", "r": "5/12"}'


#: (mode, family, target, bbox, res, sha256) of each pinned sample-grid lattice
_GRID_PINS = [
    ("exact", "niemytzki_kappa", _TANGENT, "-3/2,3/2,0,11/5", "30x22",
     "6cfda6ed1ce50bb77c9c40c404733814853409ad23b99107335b715a1c402084"),
    ("float", "niemytzki_kappa", _TANGENT, "-3/2,3/2,0,11/5", "30x22",
     "16adb8ff5ddbe947982733d01002c7b973634a13eb98a0d73130ffa21dfb3b35"),
    ("exact", "niemytzki_kappa", _SEPARATED_UNION, "-3/2,3/2,0,2", "15x11",
     "adff98c60c8b11278adefa3886e60ea67632aed4389090b98b868f878a5a1e1e"),
    ("exact", "sorgenfrey_kappa", _SORGENFREY_UNION, "-2,3", "660",
     "26a8c98357d09d86ca427a859d546b10edf274ecf8af506b3e4453552093ba31"),
    # bbox ends with denominators 3 and 4: unreduced lattice terms over 12 * 91
    ("exact", "sorgenfrey_kappa", _SORGENFREY_UNION, "-7/3,11/4", "91",
     "83ca63020baad73ea1ce55b2c7263080c42aa0f506fd5c7d3b2bac117fa5329c"),
    ("exact", "niemytzki_kappa", _OVERLAPPING_UNION, "-1,3/2,0,2", "40x30",
     "70d357ff975b26d00d373e7e8551f30c18a5b776c4195ea2b597a336a8fb34e8"),
    ("float", "niemytzki_kappa", _OVERLAPPING_UNION, "-1,3/2,0,2", "40x30",
     "d376555416ff69d10deda6bdaa26160c8c8056d6d36fe534bdace65291161238"),
    # the lattice meets the tangency point (1/3, 0), the vertical axis
    # x = 1/3 and the diameter y = 3/4, where the g scale is 1
    ("exact", "g_family", _G_TANGENT, "-2/3,4/3,0,3/2", "30x22",
     "4d7410d68405a787531f3a9b0bd741f6714b9902329bb6e1dde40c68f6e17bb2"),
    ("float", "g_family", _G_TANGENT, "-2/3,4/3,0,3/2", "30x22",
     "176bf202017995458ebf8710253385ad064bd58ab2b3e2d91a2806f0b035c903"),
    # the four lattices of the benchmark's grid workload at full size
    ("exact", "niemytzki_kappa", _TANGENT, "-3/2,3/2,0,11/5", "300x220",
     "04d7e334b8e080215aa756ce41be4209563ff6e17d7e9d0ed5b04d34aedc4031"),
    ("float", "niemytzki_kappa", _TANGENT, "-3/2,3/2,0,11/5", "300x220",
     "6fa33aa1737cd44286bd1cd70eafac551d1677973799fb3275306c8744cec2b7"),
    ("exact", "niemytzki_kappa", _SEPARATED_UNION, "-3/2,3/2,0,2", "150x110",
     "9f994510ac8fc9e1dedd05fb245d4e66e57db5d163a8ad971d715bc90588b425"),
    ("exact", "sorgenfrey_kappa", _SORGENFREY_UNION, "-2,3", "66000",
     "4f4c914220f2ed2df141f40f19027995605f41ced9e5571195acd084342fc790"),
    # the full-size README lattice drawn from its other corner: both axes descending
    ("exact", "niemytzki_kappa", _TANGENT, "3/2,-3/2,11/5,0", "300x220",
     "d3e8e86d76e7f4eb3d17f238c8dac730df8e5e578a4aa0f4e6db72d65d1f4489"),
    ("float", "niemytzki_kappa", _TANGENT, "3/2,-3/2,11/5,0", "300x220",
     "5f587487ae017f6cb22977bdf371b283b1789d9459ddadc31b0b68215ad7b424"),
    ("exact", "niemytzki_kappa", _INTERIOR, "-1/2,7/6,1/2,2", "40x30",
     "d302e7eac73610fbea2e0fb18f0b0d3b148b127994772e46e9f4d71b1e8ed683"),
    ("float", "niemytzki_kappa", _INTERIOR, "-1/2,7/6,1/2,2", "40x30",
     "943394c882b1195e1c09d5342e5122bff83cffe5c05bf8b38c0dfd38fa080dd2"),
    ("float", "niemytzki_kappa", _SEPARATED_UNION, "-3/2,3/2,0,2", "150x110",
     "cf21cd2ffff86e45e49591536f672fc0cce407b0220975eccaf81706deaa020f"),
    # a binary64 set: exact coordinates meet its binary64 view, whose
    # chord radicand converts y^2 once instead of squaring float(y)
    ("exact", "niemytzki_kappa", _BINARY64_TANGENT, "-1,6/5,0,3/2", "40x30",
     "68d429c1bad5b00d850354eeca62298d361d4bd5a4e158286976902f21bb6054"),
    ("float", "niemytzki_kappa", _BINARY64_TANGENT, "-1,6/5,0,3/2", "40x30",
     "eef443dd0243b13ffc268a51762f995a93fd4239dbc14140af30c39d50476c29"),
    ("exact", "niemytzki_kappa", _PYTHAGOREAN_TANGENT, "-19/18,41/18,0,5/4", "120x15",
     "e420c82e3464af2284200eb5867dc7057dbeb8010440f38267501469f58e1b35"),
    ("float", "niemytzki_kappa", _PYTHAGOREAN_TANGENT, "-19/18,41/18,0,5/4", "120x15",
     "2b4ba1abfbf51995f367254b3230853309f73c1e5d10749ec12d4fae189d0ed4"),
]
_GRID_PIN_IDS = [
    "readme_exact",
    "readme_float",
    "union_separated",
    "sorgenfrey",
    "sorgenfrey_thirds_quarters",
    "union_overlapping_exact",
    "union_overlapping_float",
    "g_exact",
    "g_float",
    "full_size_readme_exact",
    "full_size_readme_float",
    "full_size_union_separated",
    "full_size_sorgenfrey",
    "full_size_readme_descending_exact",
    "full_size_readme_descending_float",
    "interior_exact",
    "interior_float",
    "full_size_union_separated_float",
    "binary64_tangent_exact",
    "binary64_tangent_float",
    "pythagorean_tangent_exact",
    "pythagorean_tangent_float",
]


def _grid_digest(tmp_path, monkeypatch, mode, family, target, bbox, res) -> str:
    """The sha256 of the CSV that sample-grid writes for a lattice of _GRID_PINS."""
    monkeypatch.setenv("KAPPALAB_MODE", mode)
    out = tmp_path / "g.csv"
    argv = ["sample-grid", "--family", family, "--set", target, f"--bbox={bbox}", "--res", res]
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode, family, target, bbox, res, sha256", _GRID_PINS, ids=_GRID_PIN_IDS)
def test_sample_grid_bytes_are_pinned(tmp_path, monkeypatch, mode, family, target, bbox, res, sha256):
    # any change to a value, a coordinate or the number format changes the hash
    assert _grid_digest(tmp_path, monkeypatch, mode, family, target, bbox, res) == sha256


def test_sample_grid_does_column_and_row_work_once(tmp_path, monkeypatch):
    # the full-size binary64 README lattice, 300 columns by 220 rows: a point
    # inside U repeats no test its run, its row or its column decided, so
    # is_zero runs per row, per column and per bisection step (81,558 calls
    # when every point repeated them) and the disc membership test
    # O(log columns) times per row, not once per point
    import kappalab.basesets
    import kappalab.numerics
    from kappalab.basesets import _Disc

    counts = {"is_zero": 0, "member": 0}
    is_zero, member = kappalab.numerics.is_zero, _Disc.binary64_d2

    def counted_is_zero(a):
        counts["is_zero"] += 1
        return is_zero(a)

    def counted_member(disc, x, y):
        counts["member"] += 1
        return member(disc, x, y)

    _on_cores(monkeypatch, 1)  # the spies see every chunk
    for module in (kappalab.basesets, kappalab.families, kappalab.numerics, kappalab.rosets, kappalab.spaces):
        if hasattr(module, "is_zero"):
            monkeypatch.setattr(module, "is_zero", counted_is_zero)
    monkeypatch.setattr(_Disc, "binary64_d2", counted_member)
    monkeypatch.setenv("KAPPALAB_MODE", "float")
    argv = ["sample-grid", "--family", "niemytzki_kappa", "--set", _TANGENT, "--bbox=-3/2,3/2,0,11/5"]
    assert main(argv + ["--res", "300x220", "--out", str(tmp_path / "g.csv")]) == 0
    rows, columns = 220, 300
    assert counts["is_zero"] < 8_000
    assert counts["member"] <= rows * 2 * (columns.bit_length() + 1)


_STEP = st.fractions(min_value=F(1, 40), max_value=1, max_denominator=40)
_OFFSET = st.fractions(min_value=-2, max_value=2, max_denominator=30)
_RADIUS = st.fractions(min_value=F(1, 8), max_value=1, max_denominator=24)


@st.composite
def _axis_through(draw, point):
    """(lo, hi, n) of a lattice axis lo + (hi - lo) i/n whose i0-th coordinate
    is ``point``, ascending or descending."""
    n, step = draw(st.integers(1, 9)), draw(_STEP) * draw(st.sampled_from([1, -1]))
    lo = point - draw(st.integers(0, n - 1)) * step
    return lo, lo + n * step, n


@st.composite
def _rows_through(draw, height):
    """(lo, hi, n) of lattice rows k h, k < n, h = height/j: through the axis
    y = 0 and through ``height``, ascending or descending."""
    n = draw(st.integers(2, 9))
    h = height / draw(st.integers(1, n - 1))
    return (F(0), n * h, n) if draw(st.booleans()) else ((n - 1) * h, -h, n)


@st.composite
def _niemytzki_lattice(draw):
    """A Niemytzki family, an exact or binary64 set of its and a lattice
    through a centre's vertical axis, a diameter, the axis y = 0 and (for a
    tangent disc) the tangency point."""
    r, a = draw(_RADIUS), draw(_OFFSET)
    first = TangentDisc(a, r) if draw(st.booleans()) else InteriorDisc(a, r + draw(_STEP), r)
    kind = draw(st.sampled_from(["disc", "g", "separated", "overlapping"]))
    if kind in ("disc", "g"):
        components = [first if kind == "disc" else TangentDisc(a, r)]
    elif kind == "separated":  # hulls 5 apart
        components = [first, TangentDisc(a + 5, draw(_RADIUS))]
    else:  # the second centre inside the first disc, neither disc inside the other
        c = first.center
        components = [first, InteriorDisc(c.x + r / 2, c.y + r / 4, 3 * r / 4)]
    if draw(st.booleans()):
        components = [
            TangentDisc(float(s.a), float(s.r)) if isinstance(s, TangentDisc)
            else InteriorDisc(float(s.cx), float(s.cy), float(s.r))
            for s in components
        ]
    U = validate_regular_open(Space.NIEMYTZKI, components)
    c = draw(st.sampled_from(U.components)).center
    x_axis = draw(_axis_through(F(c.x)))
    y_axis = draw(_rows_through(F(c.y)) | _rows_through(draw(_STEP)))
    family = "g_family" if kind == "g" else "niemytzki_kappa"
    return family, U, x_axis, y_axis


@st.composite
def _sorgenfrey_lattice(draw):
    """A Sorgenfrey union of two components and a lattice through an endpoint
    b, through b - 1 or through neither."""
    ends = sorted(draw(st.sets(_OFFSET, min_size=4, max_size=4)))
    U = validate_regular_open(
        Space.SORGENFREY, [HalfOpen(ends[0], ends[1]), HalfOpen(ends[2], ends[3])]
    )
    through = draw(st.sampled_from([*ends, ends[1] - 1, ends[3] - 1]) | _OFFSET)
    return "sorgenfrey_kappa", U, draw(_axis_through(through)), None


def _coordinates(lo, hi, n):
    return [lo + (hi - lo) * F(i, n) for i in range(n)]


def _family_csv(family, U, x_axis, y_axis, mode) -> str:
    """The CSV of ``family`` on U over the lattice of (lo, hi, n) axes, one
    ``S.value`` per point: each row is the CSV text of float(coordinate) and
    of the value at the point the row names, in the mode's coordinates."""
    S = decode_family(family)
    xs = _coordinates(*x_axis)
    if y_axis:
        to = float if mode == "float" else F
        rows = [
            f"{_csv_num(float(x))},{_csv_num(float(y))},"
            f"{_csv_num(S.value(U, NiemytzkiPoint(to(x), to(y))))}"
            for y in _coordinates(*y_axis)
            for x in xs
        ]
        header = "x,y,value"
    else:
        rows = [f"{_csv_num(float(x))},{_csv_num(S.value(U, SorgenfreyPoint(x)))}" for x in xs]
        header = "x,value"
    return "\n".join([header, *rows]) + "\n"


def _sample_grid_csv(family, U, x_axis, y_axis, mode) -> str:
    """The CSV ``sample-grid`` writes for ``family`` on U over that lattice."""
    bbox = ",".join(str(v) for v in (*x_axis[:2], *(y_axis or ())[:2]))
    res = f"{x_axis[2]}x{y_axis[2]}" if y_axis else str(x_axis[2])
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"KAPPALAB_MODE": mode}):
        out = Path(tmp) / "g.csv"
        argv = ["sample-grid", "--family", family, "--set", json.dumps(encode_roset(U))]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + [f"--bbox={bbox}", f"--res={res}", "--out", str(out)]) == 0
        return out.read_text()


@settings(max_examples=300, deadline=None)
@given(_niemytzki_lattice() | _sorgenfrey_lattice(), st.sampled_from(["exact", "float"]))
def test_sample_grid_rows_are_the_family_values(case, mode):
    # the lattice kernel on unreduced integer terms, called on the row spans
    # of U, is the point function
    family, U, x_axis, y_axis = case
    assert _sample_grid_csv(family, U, x_axis, y_axis, mode) == _family_csv(
        family, U, x_axis, y_axis, mode
    )


def _axis_with(point, index, n, step):
    """(lo, hi, n): the lattice axis of n coordinates ``step`` apart whose
    ``index``-th coordinate, counted from the low end, is ``point``; it runs
    from the high end down when ``step`` is negative."""
    low = point - index * abs(step)
    lo = low if step > 0 else low + (n - 1) * abs(step)
    return lo, lo + n * step, n


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("binary64", [False, True], ids=["exact_set", "binary64_set"])
@pytest.mark.parametrize("sign", [1, -1], ids=["ascending", "descending"])
@pytest.mark.parametrize(
    "shape", ["tangent", "interior", "overlapping", "g", "separated_adjacent", "overlapping_nested"]
)
def test_row_spans_end_on_lattice_points(shape, sign, binary64, mode):
    # circles of radius 5s through lattice points: on the rows cy +- 3s and
    # cy +- 4s a circle crosses the row at the columns cx +- 4s and cx +- 3s,
    # which lie on it and so just outside the open disc; the row y = 0 meets a
    # tangent disc at its tangency column only.  s = 1/16 keeps a binary64
    # set's boundary points exact, s = 1/12 puts rounding next to an exact one.
    s = F(1, 16) if binary64 else F(1, 12)
    a = F(1, 3) if not binary64 else F(5, 16)
    components = {
        "tangent": [TangentDisc(a, 5 * s)],
        "g": [TangentDisc(a, 5 * s)],
        "interior": [InteriorDisc(a, 6 * s, 5 * s)],
        # the second centre 3s right of and 3s above the first: they overlap
        "overlapping": [TangentDisc(a, 5 * s), InteriorDisc(a + 3 * s, 8 * s, 5 * s)],
        # hulls s/12 apart: on the row y = 6s the first run ends at the column
        # a + 14s/3 and the second starts at the next one, a + 5s
        "separated_adjacent": [InteriorDisc(a, 6 * s, 29 * s / 6), InteriorDisc(a + 107 * s / 12, 6 * s, 4 * s)],
        # on the row y = 9s the third disc's run lies inside the first's
        "overlapping_nested": [
            TangentDisc(a, 5 * s), InteriorDisc(a + 3 * s, 8 * s, 5 * s), InteriorDisc(a - s, 19 * s / 2, s)
        ],
    }[shape]
    if binary64:
        components = [
            TangentDisc(float(c.a), float(c.r)) if isinstance(c, TangentDisc)
            else InteriorDisc(float(c.cx), float(c.cy), float(c.r))
            for c in components
        ]
    U = validate_regular_open(Space.NIEMYTZKI, components)
    # 120 columns s/3 apart with the centre column 50th; rows s apart from y = 0
    x_axis = _axis_with(a, 50, 120, sign * s / 3)
    y_axis = _axis_with(F(0), 0, 15, sign * s)
    family = "g_family" if shape == "g" else "niemytzki_kappa"
    got = _sample_grid_csv(family, U, x_axis, y_axis, mode)
    assert got == _family_csv(family, U, x_axis, y_axis, mode)
    assert got.count(",0\n") < 120 * 15  # some run is not empty
    # the columns of each component's run on each row, in the mode's coordinates
    to = float if mode == "float" else F
    runs = [
        [{i for i, x in enumerate(_coordinates(*x_axis)) if basic_member(c, NiemytzkiPoint(to(x), to(y)))}
         for c in U.components]
        for y in _coordinates(*y_axis)
    ]
    if shape == "separated_adjacent":  # each run keeps its component's staged form
        assert U.separated and any(p and q and max(p) + 1 == min(q) for row in runs for p in row for q in row)
    if shape == "overlapping_nested":  # the merged run is written once
        assert not U.separated and any(p and p < q for row in runs for p in row for q in row)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("sign", [1, -1], ids=["ascending", "descending"])
@pytest.mark.parametrize(
    "n, ends",
    [(40, [(-3, 8), (12, 17), (20, 65)]), (200, [(-3, 40), (45, 105), (170, 210)])],
    ids=["40_columns", "200_columns"],
)
def test_sorgenfrey_spans_end_on_lattice_points(n, ends, sign, mode):
    # the components [lo + i h, lo + j h) of U, h = 1/40, for (i, j) in ends:
    # every a and b is a lattice point or lies past an end of the lattice, and
    # so is b - 1, where the gap of the last component longer than 1 reaches
    # its cap
    h, lo = F(1, 40), F(-7, 3)
    U = validate_regular_open(
        Space.SORGENFREY, [HalfOpen(lo + i * h, lo + j * h) for i, j in ends]
    )
    x_axis = _axis_with(lo, 0, n, sign * h)
    got = _sample_grid_csv("sorgenfrey_kappa", U, x_axis, None, mode)
    assert got == _family_csv("sorgenfrey_kappa", U, x_axis, None, mode)


def _refute_bundle(tmp_path, *args):
    out = tmp_path / "bundle.json"
    assert main(["refute", "niemytzki-strat", *args, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_refute_niemytzki_strat_reads_n(tmp_path):
    for args, pinned in ((["--n", "5"], 5), ([], 50)):
        bundle = _refute_bundle(tmp_path, *args)
        assert sum(a["kind"] == "value_eq" for a in bundle["assertions"]) == pinned


def test_refute_help_names_every_target_and_candidate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refute", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # as one line, however argparse wraps it
    assert "{sorgenfrey-a,doublearrow-d,niemytzki-strat,g-extend}" in out
    assert "{characteristic,clopen_only,right_gap}" in out
    assert "sorgenfrey-a (default characteristic) only" in out
    assert "niemytzki-strat (default 50) and g-extend (default 1) only" in out


def _schema_table(header: str) -> list[list[str]]:
    """The rows of the docs/schema.md table under ``header``, as cells."""
    lines = (Path(__file__).resolve().parents[1] / "docs" / "schema.md").read_text().splitlines()
    start = [line.strip() for line in lines].index(header) + 2  # past the header and its rule
    rows = takewhile(lambda line: line.strip().startswith("|"), lines[start:])
    return [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in rows]


def _code_names(cell: str) -> list[str]:
    """The `names` of a table cell, in order; none for "none"."""
    return [] if cell == "none" else [name.strip().strip("`") for name in cell.split(",")]


def test_schema_doc_lists_the_fields_and_verdicts_of_every_check_kind():
    from kappalab.cli import _KINDS

    documented = {
        kind.strip("`"): (set(_code_names(fields)), tuple(_code_names(verdicts)))
        for kind, fields, verdicts in _schema_table("| `check` | fields | verdicts |")
    }
    assert documented == {kind: (fields, verdicts) for kind, (fields, verdicts, _) in _KINDS.items()}


def test_schema_doc_lists_the_fields_and_defaults_of_every_refute_target():
    from kappalab.cli import _TARGETS

    documented = {
        target.strip("`"): dict(re.findall(r"`([^`]+)` = `([^`]+)`", fields))
        for target, fields in _schema_table("| target | fields |")
    }
    assert documented == {target: {k: str(v) for k, v in row[0].items()} for target, row in _TARGETS.items()}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_refute_bundles_reverify_from_their_json(tmp_path, monkeypatch, mode):
    from kappalab.refuters import RefutationResult, reverify_bundle

    monkeypatch.setenv("KAPPALAB_MODE", mode)
    for target in ("sorgenfrey-a", "doublearrow-d", "niemytzki-strat", "g-extend"):
        out = tmp_path / f"{target}.json"
        assert main(["refute", target, "--out", str(out)]) == 0
        assert reverify_bundle(RefutationResult(**json.loads(out.read_text())))


# ---------------------------------------------------------------------------
# check's cases on every usable core


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child forked in the test; each one has been reaped
    (it runs no more) by the end of the test."""
    pids, fork = [], os.fork

    def spied_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spied_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_case_i_runs_in_process_i_mod_n(monkeypatch, forked, cores):
    from kappalab.cli import _run_cases

    _on_cores(monkeypatch, cores)
    pids = [pid for pid, _ in _run_cases([lambda: (os.getpid(), True)] * 7, [1] * 7)]
    assert pids == [pids[i % cores] for i in range(7)]
    assert pids[0] == os.getpid() and len(set(pids)) == cores == len(forked) + 1
    assert _run_cases([], []) == [] and len(forked) == cores - 1


def _case(i, log):
    """A case that appends its index to the file ``log`` and returns its
    index and its process."""

    def run():
        with open(log, "a") as f:
            f.write(f"{i}\n")
        return i, os.getpid()

    return run


def test_the_longest_case_gets_a_process_of_its_own(monkeypatch, forked):
    # the separations scenario's three cases at --seed 99, in ms: process 0
    # runs case 2 alone, and not cases 0 and 2 as i mod n would
    from kappalab.cli import _run_cases, _shares

    assert _shares([34, 43, 61], 2) == [[2], [0, 1]]
    _on_cores(monkeypatch, 2)
    pids = [pid for _, pid in _run_cases([lambda i=i: (i, os.getpid()) for i in range(3)], [34, 43, 61])]
    assert pids[2] == os.getpid() != pids[0] == pids[1] == forked[0]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_unequal_costs_run_each_case_once_and_report_in_case_order(tmp_path, monkeypatch, forked, cores):
    from kappalab.cli import _run_cases

    _on_cores(monkeypatch, cores)
    costs = [5, 1, 1, 5, 1, 7, 2, 2, 9, 1, 3]
    log = tmp_path / "ran"
    outcomes = _run_cases([_case(i, log) for i in range(len(costs))], costs)
    assert [i for i, _ in outcomes] == list(range(len(costs)))
    assert sorted(map(int, log.read_text().split())) == list(range(len(costs)))
    assert len({pid for _, pid in outcomes}) == cores == len(forked) + 1


@pytest.mark.parametrize(
    "cores, raising, first",
    [
        # costs [5, 1, 1, 5, 1] on 2 cores: process 0 runs cases 0, 1, 4 and process 1 cases 2, 3
        (2, {4, 3}, 3),
        (2, {1, 2}, 1),
        (2, {4, 2}, 2),
        # on 3 cores: process 0 runs case 0, process 1 case 3, process 2 cases 1, 2, 4
        (3, {4, 3}, 3),
        (3, {2, 4}, 2),
    ],
)
def test_a_raising_case_in_a_gapped_share_is_first_in_case_order(monkeypatch, forked, cores, raising, first):
    from kappalab.cli import _run_cases, _shares

    assert _shares([5, 1, 1, 5, 1], 2) == [[0, 1, 4], [2, 3]]
    assert _shares([5, 1, 1, 5, 1], 3) == [[0], [3], [1, 2, 4]]
    _on_cores(monkeypatch, cores)
    runs = [_raise(ValueError(f"case {i}")) if i in raising else (lambda: ({}, True)) for i in range(5)]
    outcomes = _run_cases(runs, [5, 1, 1, 5, 1])
    raised = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, BaseException)]
    assert raised[0] == first and str(outcomes[first]) == f"case {first}"
    assert all(outcome == ({}, True) for outcome in outcomes[:first])
    assert len(forked) == cores - 1


@pytest.mark.parametrize("costs, processes", [([1], 1), ([1, 100], 2), ([100, 1], 2)])
def test_no_process_is_forked_for_an_empty_share(monkeypatch, forked, costs, processes):
    from kappalab.cli import _run_cases

    _on_cores(monkeypatch, 3)
    outcomes = _run_cases([lambda i=i: (i, os.getpid()) for i in range(len(costs))], costs)
    assert [i for i, _ in outcomes] == list(range(len(costs)))
    assert len({pid for _, pid in outcomes}) == processes == len(forked) + 1


@pytest.mark.parametrize("costs", [[0], [3, 0, 2], [1, -1]], ids=["zero", "zero_among_others", "negative"])
def test_a_cost_below_1_is_rejected(monkeypatch, forked, costs):
    from kappalab.cli import _run_cases

    _on_cores(monkeypatch, 3)
    with pytest.raises(ValueError, match="cost of at least 1"):
        _run_cases([lambda: ({}, True)] * len(costs), costs)
    assert forked == []


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("seed", list(_CORPUS_REPORTS), ids=["shipped_seeds", "seed_99", "seed_8"])
def test_corpus_report_bytes_are_pinned_on_any_core_count(tmp_path, monkeypatch, forked, seed, cores):
    _on_cores(monkeypatch, cores)
    assert _corpus_digests(tmp_path, monkeypatch, seed) == _CORPUS_REPORTS[seed]
    assert len(forked) == cores - 1  # one round of cases for the whole corpus


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("seed", list(_CORPUS_REPORTS), ids=["shipped_seeds", "seed_99", "seed_8"])
def test_each_scenario_run_alone_holds_the_corpus_pins_on_any_core_count(tmp_path, monkeypatch, forked, seed, cores):
    # each check --scenario deals its own cases among the cores, not the
    # pooled corpus's: the shares differ, the bytes do not
    _on_cores(monkeypatch, cores)
    assert _corpus_digests(tmp_path, monkeypatch, seed, pooled=False) == _CORPUS_REPORTS[seed]
    # a scenario of one case, the negative control, forks nothing
    assert len(forked) == (len(_CORPUS_REPORTS[seed]) - 1) * (cores - 1)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("mode, family, target, bbox, res, sha256", _GRID_PINS, ids=_GRID_PIN_IDS)
def test_sample_grid_bytes_are_pinned_on_any_core_count(
    tmp_path, monkeypatch, forked, mode, family, target, bbox, res, sha256, cores
):
    _on_cores(monkeypatch, cores)
    assert _grid_digest(tmp_path, monkeypatch, mode, family, target, bbox, res) == sha256
    assert len(forked) == cores - 1  # every pinned lattice has more points than chunks per core


def _grid_in_chunks(tmp_path, monkeypatch, cores, csv_num) -> tuple[int, Path]:
    """Run sample-grid on the small README lattice on ``cores`` cores, with
    ``csv_num(v)`` in place of ``_csv_num``, which the chunks call on the
    values they write."""
    import kappalab.cli

    _on_cores(monkeypatch, cores)
    monkeypatch.setattr(kappalab.cli, "_csv_num", csv_num)
    out = tmp_path / "g.csv"
    argv = ["sample-grid", "--family", "niemytzki_kappa", "--set", _TANGENT, "--bbox=-3/2,3/2,0,11/5"]
    return main(argv + ["--res", "30x22", "--out", str(out)]), out


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("where", ["child", "every"])
def test_a_raising_chunk_exits_4_in_chunk_order(tmp_path, capsys, monkeypatch, forked, where, cores):
    # chunk 0 runs in this process, and writes the value at the tangency
    # point: its exception comes first in chunk order
    from kappalab.cli import _csv_num

    parent = os.getpid()

    def csv_num(v):
        if os.getpid() != parent:
            raise AssertionError("a broken value in a forked process")
        if where == "every" and len(forked) == cores - 1:  # this process's chunks have begun
            raise AssertionError("a broken value in the command's process")
        return _csv_num(v)

    code, out = _grid_in_chunks(tmp_path, monkeypatch, cores, csv_num)
    where_text = "a forked process" if where == "child" else "the command's process"
    assert code == 4
    assert capsys.readouterr() == ("", f"internal tolerance/consistency failure: a broken value in {where_text}\n")
    assert not out.exists() and len(forked) == cores - 1


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_chunk_that_dies_fails_sample_grid_without_a_csv(tmp_path, capsys, monkeypatch, forked, death, cores):
    # every forked process dies at the first value it writes; process 1 is reaped first
    from kappalab.cli import _csv_num

    parent, die = os.getpid(), _dying(death)
    code, out = _grid_in_chunks(tmp_path, monkeypatch, cores, lambda v: _csv_num(v) if os.getpid() == parent else die())
    code_text = "1" if death == "exit" else f"-{int(signal.SIGKILL)}"
    assert code == 4
    assert capsys.readouterr() == (
        "", f"internal failure: forked process 1 of {cores} ended with code {code_text} before sending its outcomes\n"
    )
    assert not out.exists() and len(forked) == cores - 1


#: three cases: case i is the refuter of _TARGETS[i]
_TARGETS = ("g-extend", "doublearrow-d", "sorgenfrey-a")
_THREE_CASES = {"name": "three", "checks": [{"check": "refute", "target": t} for t in _TARGETS]}


def _refuter_doing(monkeypatch, at, fn):
    """Make case ``at`` of _THREE_CASES call ``fn()`` as its refuter."""
    import kappalab.cli

    target = _TARGETS[at]
    defaults, _, ms = kappalab.cli._TARGETS[target]
    monkeypatch.setitem(kappalab.cli._TARGETS, target, (defaults, lambda fields, seed: fn(), ms))


def _raise(exc):
    def fn():
        raise exc

    return fn


def _check_three_cases(tmp_path) -> tuple[int, Path]:
    out = tmp_path / "out"
    return main(_scenario_argv(tmp_path, _THREE_CASES) + ["--out", str(out)]), out


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_raising_case_exits_4_in_any_process(tmp_path, capsys, monkeypatch, forked, at, cores):
    # case ``at`` runs in process at mod cores: this one, or a child
    _on_cores(monkeypatch, cores)
    _refuter_doing(monkeypatch, at, _raise(AssertionError("a broken tolerance")))
    code, out = _check_three_cases(tmp_path)
    assert code == 4
    assert capsys.readouterr() == ("", "internal tolerance/consistency failure: a broken tolerance\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_first_raising_case_in_case_order_wins(tmp_path, capsys, monkeypatch, forked, cores):
    # on 2 cores case 1 runs in the child and case 2 in this process, whose
    # exception is in hand before the child's arrives
    _on_cores(monkeypatch, cores)
    _refuter_doing(monkeypatch, 1, _raise(AssertionError("case 1")))
    _refuter_doing(monkeypatch, 2, _raise(ZeroDivisionError("case 2")))
    assert _check_three_cases(tmp_path)[0] == 4
    assert capsys.readouterr().err == "internal tolerance/consistency failure: case 1\n"


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_scenario_without_checks_reports_no_results(tmp_path, monkeypatch, forked, cores):
    _on_cores(monkeypatch, cores)
    argv = _scenario_argv(tmp_path, {"name": "empty", "checks": []}) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "empty.json").read_text())
    assert report["results"] == [] and report["all_expected"] is True
    assert forked == []


def _dying(death):
    """A case that ends its process, when that is a child, by ``death``."""
    parent = os.getpid()

    def fn():
        if os.getpid() == parent:
            raise RuntimeError("the dying case ran in the test process")
        if death == "exit":
            os._exit(1)
        os.kill(os.getpid(), signal.SIGKILL)

    return fn


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_child_that_dies_fails_the_command_without_a_report(tmp_path, capsys, monkeypatch, forked, death, cores):
    from kappalab.cli import _build_scenario, _shares

    # the first case that the cases' costs deal to a forked process k > 0
    costs = [cost for *_, cost, _ in _build_scenario(_THREE_CASES)[2]]
    k, at = next((k, share[0]) for k, share in enumerate(_shares(costs, cores)) if k)
    _on_cores(monkeypatch, cores)
    _refuter_doing(monkeypatch, at, _dying(death))
    code, out = _check_three_cases(tmp_path)
    code_text = "1" if death == "exit" else f"-{int(signal.SIGKILL)}"
    assert code == 4
    assert capsys.readouterr() == (
        "", f"internal failure: forked process {k} of {cores} ended with code {code_text} before sending its outcomes\n"
    )
    assert list(out.iterdir()) == []


def _sleep():
    time.sleep(60)


@pytest.mark.parametrize(
    "runs, raised",
    [
        # this process is interrupted while child 1 sleeps
        ([_raise(KeyboardInterrupt()), _sleep, _sleep], KeyboardInterrupt),
        # child 1 dies while child 2 sleeps
        ([lambda: ({}, True), _dying("exit"), _sleep], ChildProcessError),
    ],
    ids=["interrupted", "sibling_died"],
)
def test_no_child_outlives_a_failed_run(monkeypatch, forked, runs, raised):
    from kappalab.cli import _run_cases

    _on_cores(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(raised):
        _run_cases(runs, [1] * len(runs))
    assert time.monotonic() - started < 30 and len(forked) == 2


def _exception_classes() -> list[type]:
    """Every exception class that a kappalab module defines."""
    import importlib
    import pkgutil

    found = []
    for info in pkgutil.iter_modules(kappalab.__path__):
        module = importlib.import_module(f"kappalab.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda cls: cls.__name__)


#: the fields besides the message of the exceptions that carry any
_EXCEPTION_FIELDS = {"NotRegularOpenError": (NiemytzkiPoint(F(1, 2), F(1, 3)),)}


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__name__)
def test_exceptions_cross_a_pipe_whole(cls):
    # a case that raises in a child is pickled back to the parent
    exc = cls("a message", *_EXCEPTION_FIELDS.get(cls.__name__, ()))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and back.args == exc.args and str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_refute_costs_even_the_refuters_scenario_on_two_cores():
    # in-process ms at --seed 99 of characteristic, right_gap, clopen_only,
    # doublearrow-d, niemytzki-strat (n = 50) and g-extend (n = 1, 10): 12.8,
    # 16.4, 3.9, 1.3, 15.6, 1.2, 1.1.  Process 0 runs 23.9 ms and process 1
    # 28.4 ms, where a flat cost gave 33.3 against 19.0 ms
    from kappalab.cli import _build_scenario, _shares

    path = Path(kappalab.__file__).parent / "scenarios" / "refuters.json"
    _, _, cases = _build_scenario(json.loads(path.read_text()))
    costs = [cost for *_, cost, _ in cases]
    assert costs == [853, 1093, 260, 87, 1040, 80, 80]
    assert _shares(costs, 2) == [[1, 2, 3, 5, 6], [0, 4]]
    assert _shares([60] * 7, 2) == [[0, 2, 4, 6], [1, 3, 5]]
