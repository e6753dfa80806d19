"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import kappalab as kl
from kappalab import (
    QGrid,
    SamplePlan,
    approximation_to_stratification,
    bind_chain,
    bridge_4_iff_d,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    check_condition_d,
    double_arrow_ro,
    niemytzki_kappa,
    replay_witness,
    reverify_bundle,
    sorgenfrey_kappa,
    stratification_to_approximation,
)
from kappalab.basesets import InteriorDisc, TangentDisc
from kappalab.families import niemytzki_basic_f, niemytzki_union_f
from kappalab.harness import chain_check_points, check_separations, continuity_negative_control
from kappalab.rosets import validate_regular_open
from kappalab.sampling import (
    rand_dyadic,
    sample_chain,
    sample_condition3_pairs,
    sample_niemytzki_set_separated,
    sample_point_near_set,
    sample_set,
    double_arrow_pinch_chain,
)
from kappalab.spaces import DoubleArrowPoint, NiemytzkiPoint, Space


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. support and monotonicity at scale


def test_criterion_1_positive_axioms_at_scale():
    plan = SamplePlan(seed=101, n_points=10_000, n_set_pairs=1_000)
    t0 = time.monotonic()
    total = 0
    for family in (sorgenfrey_kappa, double_arrow_ro, niemytzki_kappa):
        S = family()
        r1 = check_condition_1(S, plan)
        r2 = check_condition_2(S, plan)
        assert r1.passed and r1.counts["violations"] == 0, r1.witnesses
        assert r2.passed and r2.counts["violations"] == 0, r2.witnesses
        assert r1.counts["samples"] >= 10_000
        assert r2.counts["samples"] >= 10_000
        total += r1.counts["samples"] + r2.counts["samples"]
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _announce(1, f"{total} samples across three families, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. continuity along certificates


def test_criterion_2_continuity():
    counts = {}
    for family, space in (
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ):
        rng = random.Random(202)
        pairs = sample_condition3_pairs(space, rng, 100)
        rep = check_condition_3(family(), pairs, tol=1e-3)
        assert rep.passed and rep.counts["sequences"] >= 100, rep.witnesses
        counts[space.value] = rep.counts["sequences"]
    neg_family, neg_pairs = continuity_negative_control()
    neg = check_condition_3(neg_family, neg_pairs)
    assert not neg.passed
    assert replay_witness(neg.witnesses[0])
    _announce(
        2,
        f"{counts} certified sequences within 1e-3 at tail 100; "
        "negative control fails with a replayable witness",
    )


# ---------------------------------------------------------------------------
# 3. chain conditions


def test_criterion_3_chain_conditions():
    plan = SamplePlan(seed=303)
    rng = random.Random(303)
    n_chains = 0
    for family, space, count in (
        (niemytzki_kappa, Space.NIEMYTZKI, 12),
        (sorgenfrey_kappa, Space.SORGENFREY, 10),
    ):
        S = family()
        grid = [F(k, 2**plan.grid_m) for k in range(1, 2**plan.grid_m)]  # the grid values
        pairs = [(grid[50], grid[85]), (grid[300], grid[600])]
        for _ in range(count):
            chain = sample_chain(space, rng)
            points = chain_check_points(chain, plan)
            bound = bind_chain(S, chain)
            r4 = check_condition_4(bound, points)
            rd = check_condition_d(bound, pairs, points, plan)
            assert r4.passed, r4.witnesses
            assert rd.passed, rd.witnesses
            n_chains += 1
    assert n_chains >= 20

    chain = double_arrow_pinch_chain()
    points = chain_check_points(chain, plan)
    r4 = check_condition_4(bind_chain(double_arrow_ro(), chain), points)
    assert not r4.passed
    witness_pt = r4.witnesses[0]["point"]
    assert witness_pt == {"space": "double_arrow", "t": "1/10", "side": 0}
    # exact rational membership of the witness in every element
    p = DoubleArrowPoint(F(1, 10), 0)
    for k in (1, 16, 64):
        assert kl.member(chain.at(k), p)
    assert not kl.member(kl.decreasing_chain_interior(chain), p)
    _announce(
        3,
        f"{n_chains} declared-limit chains pass the infimum and closure "
        "conditions; the clopen chain fails at (1/10, 0) by exact membership",
    )


# ---------------------------------------------------------------------------
# 4. transform round trip


def test_criterion_4_roundtrip():
    grid = QGrid(10)
    step = grid.step
    n_total = 0
    exact_checked = 0
    for family, space in (
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ):
        S = family()
        S2 = approximation_to_stratification(
            stratification_to_approximation(S, grid), grid
        )
        rng = random.Random(404)
        for _ in range(250):
            U = (
                sample_niemytzki_set_separated(rng)
                if space is Space.NIEMYTZKI
                else sample_set(space, rng)
            )
            for _ in range(4):
                p = sample_point_near_set(U, rng)
                v, v2 = S.value(U, p), S2.value(U, p)
                assert abs(float(v2) - float(v)) <= float(step) + 1e-12
                n_total += 1
                if isinstance(v, F) and (
                    v == 0 or v == 1 or (v * 2**10).denominator == 1
                ):
                    assert v2 == v
                    exact_checked += 1
    assert n_total >= 3000 and exact_checked > 300
    _announce(
        4,
        f"{n_total} samples within 2^-10; {exact_checked} dyadic/0/1 values exact",
    )


# ---------------------------------------------------------------------------
# 5. bridge agreement


def test_criterion_5_bridge_agreement():
    plan = SamplePlan(seed=505)
    rng = random.Random(505)
    pairs = 0
    for family, space, count in (
        (niemytzki_kappa, Space.NIEMYTZKI, 13),
        (sorgenfrey_kappa, Space.SORGENFREY, 12),
        (double_arrow_ro, Space.DOUBLE_ARROW, 3),
    ):
        for _ in range(count):
            chain = sample_chain(space, rng)
            _, _, agree = bridge_4_iff_d(bind_chain(family(), chain), plan)
            assert agree
            pairs += 1
    r4, rd, agree = bridge_4_iff_d(bind_chain(double_arrow_ro(), double_arrow_pinch_chain()), plan)
    assert agree and not r4.passed and not rd.passed
    pairs += 1
    assert pairs >= 25
    _announce(5, f"{pairs} family/chain pairs, zero verdict disagreements")


# ---------------------------------------------------------------------------
# 6. the union supremum against a brute-force oracle
#
# The oracle enumerates disc centers on a 1e-3 grid and radii on a 1e-3 grid
# with its own sampled containment (dense boundary angles plus the uncovered
# crossing corners of the arrangement, which sharp wedges require), plus the
# gridded tangent-disc candidates at the union's tangency points.  Grid
# quantization keeps the oracle below the continuum supremum by up to
# ~2.4e-3, so the 1e-4 tolerance is asserted on the side it can constrain:
# the implementation must reach at least oracle - 1e-4, and may exceed the
# oracle only by the documented quantization gap.

ORACLE_GAP = 3e-3


def _oracle_circle_cross(c1, c2):
    (x1, y1, r1), (x2, y2, r2) = c1, c2
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    return [(mx - h * dy / d, my + h * dx / d), (mx + h * dy / d, my - h * dx / d)]


def _oracle_value(V, p, step=1e-3):
    circles = [(float(c.center.x), float(c.center.y), float(c.r)) for c in V.components]
    tangencies = [float(c.a) for c in V.components if isinstance(c, TangentDisc)]
    px, py = float(p.x), float(p.y)

    verts = []
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            for vx, vy in _oracle_circle_cross(circles[i], circles[j]):
                if vy < -1e-12:
                    continue
                covered = any(
                    (vx - x) ** 2 + (vy - y) ** 2 < r * r - 1e-15 for x, y, r in circles
                )
                if not covered:
                    verts.append((vx, max(0.0, vy)))
    varr = np.array(verts) if verts else np.zeros((0, 2))

    th = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)

    def contained(cx, cy, r):
        if r <= 0:
            return True
        pts = np.array([[cx, cy]]) + r * (1 - 1e-9) * ring
        if pts[:, 1].min() <= 0:
            return False
        ok = np.zeros(len(pts), dtype=bool)
        for x, y, rr in circles:
            ok |= (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2 < rr * rr
        if not ok.all():
            return False
        if len(varr):
            d = np.hypot(varr[:, 0] - cx, varr[:, 1] - cy)
            if (d < r * (1 - 1e-12)).any():
                return False
        return True

    def max_grid_radius(cx, cy):
        cap = min(cy, 1.0)
        lo_k, hi_k = 0, int(cap / step)
        while lo_k < hi_k:
            mid = (lo_k + hi_k + 1) // 2
            if contained(cx, cy, mid * step):
                lo_k = mid
            else:
                hi_k = mid - 1
        return lo_k * step

    # stage A: closed-form complement distance over the center grid; only
    # centres inside V get a finite bound, so only they are computed, in the
    # grid's row-major order and from the same coordinate arrays
    xs = np.arange(px - 1.0, px + 1.0 + step / 2, step)
    ys = np.arange(step, py + 1.0 + step / 2, step)
    ys = ys[ys > 0]
    inside = np.zeros((len(ys), len(xs)), dtype=bool)
    for x, y, r in circles:
        # the disc's bounding box, one step wider, and the exact test within it
        cols = np.nonzero(np.abs(xs - x) < r + step)[0]
        rows = np.nonzero(np.abs(ys - y) < r + step)[0]
        if len(cols) and len(rows):
            box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
            inside[box] |= np.hypot(xs[box[1]] - x, ys[box[0], None] - y) < r
    rows, cols = np.nonzero(inside)
    cs = np.stack([xs[cols], ys[rows]], axis=1)
    geo = cs[:, 1].copy()
    for x, y, r in circles:
        d = np.hypot(cs[:, 0] - x, cs[:, 1] - y)
        with np.errstate(invalid="ignore", divide="ignore"):
            ux = (cs[:, 0] - x) / d
            uy = (cs[:, 1] - y) / d
        ux = np.where(np.isfinite(ux), ux, 0.0)
        uy = np.where(np.isfinite(uy), uy, 1.0)
        nx, ny = x + r * ux, y + r * uy
        cov = np.zeros(len(cs), dtype=bool)
        for x2, y2, r2 in circles:
            if (x2, y2, r2) == (x, y, r):
                continue
            cov |= (nx - x2) ** 2 + (ny - y2) ** 2 < r2 * r2
        geo = np.where(~cov, np.minimum(geo, np.abs(r - d)), geo)
    for vx, vy in verts:
        geo = np.minimum(geo, np.hypot(cs[:, 0] - vx, cs[:, 1] - vy))
    bound = np.minimum(np.minimum(geo, cs[:, 1]), 1.0) - np.hypot(
        cs[:, 0] - px, cs[:, 1] - py
    )

    # only the candidates at or above the cutoff are sorted
    best = 0.0
    cutoff = bound.max() - 5e-4 if len(bound) else 0.0
    near = np.nonzero(bound >= cutoff)[0]
    order = near[np.argsort(bound[near])[::-1]]
    examined = 0
    for idx in order:
        if bound[idx] < max(cutoff, best) or examined >= 800:
            break
        examined += 1
        cx, cy = cs[idx]
        r = max_grid_radius(cx, cy)
        d = math.hypot(cx - px, cy - py)
        if r > d:
            best = max(best, r - d)

    # gridded tangent-disc candidates at the union's tangency points
    for a in tangencies:
        lo_k, hi_k = 0, int(1.0 / step)
        while lo_k < hi_k:
            mid = (lo_k + hi_k + 1) // 2
            rho = mid * step
            if contained(a, rho, rho):
                lo_k = mid
            else:
                hi_k = mid - 1
        rho = lo_k * step
        if rho > 0:
            val = float(
                niemytzki_basic_f(TangentDisc(a, rho), NiemytzkiPoint(px, py))
            )
            best = max(best, val)
    return best


def _overlapping_union(rng, n_comp):
    while True:
        comps = []
        anchor = rand_dyadic(rng, F(-1), F(1))
        for _ in range(n_comp):
            if rng.random() < 0.4:
                a = anchor + rand_dyadic(rng, F(-1, 2), F(1, 2))
                r = rand_dyadic(rng, F(1, 4), F(1))
                comps.append(TangentDisc(a, r))
            else:
                cx = anchor + rand_dyadic(rng, F(-1, 2), F(1, 2))
                cy = rand_dyadic(rng, F(1, 2), F(3, 2))
                r_hi = min(F(1), cy * F(3, 4))
                comps.append(InteriorDisc(cx, cy, rand_dyadic(rng, F(1, 4), r_hi)))
        try:
            V = validate_regular_open(Space.NIEMYTZKI, comps)
        except Exception:
            continue
        if len(V.components) == n_comp:
            return V


def _interior_point_in(V, rng):
    for _ in range(200):
        p = sample_point_near_set(V, rng)
        if not p.on_axis and kl.member(V, p):
            return p
    raise RuntimeError("no interior point found")


def test_criterion_6_union_sup_oracle():
    rng = random.Random(606)
    worst_low, worst_high = 0.0, 0.0
    n = 0
    for i in range(50):
        V = _overlapping_union(rng, 2 if i % 2 == 0 else 3)
        p = _interior_point_in(V, rng)
        ours = float(niemytzki_union_f(V, p))
        oracle = _oracle_value(V, p)
        low_gap = oracle - ours  # the implementation must reach the oracle
        high_gap = ours - oracle  # and exceed it only by grid quantization
        worst_low = max(worst_low, low_gap)
        worst_high = max(worst_high, high_gap)
        assert low_gap <= 1e-4, (V, p, ours, oracle)
        assert high_gap <= ORACLE_GAP, (V, p, ours, oracle)
        n += 1
    # single-component unions agree exactly with the closed form
    for _ in range(10):
        V = sample_set(Space.NIEMYTZKI, rng, max_components=1)
        p = sample_point_near_set(V, rng)
        assert niemytzki_union_f(V, p) == niemytzki_basic_f(V.components[0], p)
    _announce(
        6,
        f"{n} union instances: max oracle lead {worst_low:.2e} (tol 1e-4), "
        f"max quantization lead {worst_high:.2e} (bound {ORACLE_GAP}); "
        "single components exact",
    )


# ---------------------------------------------------------------------------
# 7. counterexample bundles


def test_criterion_7_counterexample_bundles():
    da = kl.doublearrow_not_kappa_default()
    assert da.verdict == kl.REFUTED and reverify_bundle(da)

    strat = kl.niemytzki_not_stratifiable(0, 50)
    assert strat.verdict == kl.REFUTED and reverify_bundle(strat)

    g1 = kl.g_family_not_extendable(1)
    assert g1.verdict == kl.REFUTED and reverify_bundle(g1)
    assert g1.detail["value"] == "2/3"
    # the probe membership inequality in exact arithmetic: 29/36 < 1
    probe = NiemytzkiPoint(F(1, 3), F(1, 6))
    from kappalab.spaces import sq_dist

    assert sq_dist(probe, NiemytzkiPoint(F(0), F(1))) == F(29, 36) < 1
    assert F(2, 3) > F(1, 2)

    for cand, expected in (
        (kl.characteristic_candidate(), kl.REFUTED),
        (kl.right_gap_candidate(), kl.REFUTED),
        (kl.clopen_only_candidate(), kl.NOT_FOUND),
    ):
        res = kl.refute_sorgenfrey_A(cand)
        assert res.verdict == expected
        if expected == kl.REFUTED:
            assert reverify_bundle(res, cand)
    _announce(
        7,
        "all refuters return their expected verdicts; bundles re-verify in "
        "exact arithmetic (29/36 < 1, value 2/3 > 1/2 at n=1)",
    )


# ---------------------------------------------------------------------------
# 8. separation constructions


def test_criterion_8_separations():
    plan = SamplePlan(seed=808, n_points=440)
    total_h = total_r = 0
    for family in (sorgenfrey_kappa, double_arrow_ro, niemytzki_kappa):
        rep = check_separations(family(), plan)
        assert rep.passed, rep.witnesses
        total_h += rep.counts["hausdorff_configs"]
        total_r += rep.counts["ratio_configs"]
    assert total_h >= 100 and total_r >= 100
    _announce(
        8,
        f"{total_h} point separations and {total_r} ratio separations, "
        "zero overlap violations",
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_corpus_determinism(tmp_path):
    from kappalab.cli import main

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["check", "--corpus", "--seed", "99", "--out", str(out1)]) == 0
    assert main(["check", "--corpus", "--seed", "99", "--out", str(out2)]) == 0
    files1 = sorted(f.name for f in out1.iterdir())
    files2 = sorted(f.name for f in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _announce(9, f"{len(files1)} report files byte-identical across two corpus runs")
