"""Inequality suites: all pass, counterexample has the negative gap."""

import csv
import math
from collections import Counter

import numpy as np
import pytest

from horocvx import verify
from horocvx.hconvex import SupportField, convexity, random_h_convex_fields
from horocvx.sphere_grid import make_grid
from horocvx.verify import (
    EXPLORATORY_SUITES,
    SUITES,
    Bodies,
    CheckRecord,
    Corpus,
    all_passed,
    run_all,
    run_suite,
    write_records_csv,
)

CORPUS = Corpus(seed=0, n1_resolution=96, n2_resolution=16)


def test_every_asserted_suite_passes():
    for name in SUITES:
        records = run_suite(name, Bodies(CORPUS))
        assert records, f"suite {name} produced no records"
        bad = [r for r in records if not r.passed]
        assert not bad, f"suite {name} failed: {bad[:3]}"


def test_euclid_suite_analyses_each_body_once(fft_counts):
    # One derivative pass per SupportField; each projection reuses its
    # field's Hessian instead of analysing u^ = phi again, and each
    # p-dilate scales its source's derivatives; an origin ball, constant,
    # makes no pass.
    run_suite("euclid")
    assert fft_counts["rfft"] == 14


def test_run_all_builds_each_body_once(fft_counts):
    # One body set for the whole run: a body that several suites use is
    # analysed once (250 rfft calls when every suite built its own), and
    # so is each p-sum that a suite reads at several k; dilates and
    # cone-shrink candidates take derivatives from a pass already made;
    # origin balls and their p-sums, constant, make none.
    run_all(Corpus(), exploratory=True)
    assert fft_counts["rfft"] <= 78


def test_run_all_evaluates_each_w_k_once_per_field(wk_calls, fft_counts):
    # The suites ask for W_k 66 times, and each of the 47 distinct (field,
    # k) pairs with no closed form computes it once; each field caches its
    # own, and a new run's fields compute it again.  A k = n mean radius
    # reads no W_n (it is the mean of phi^{-n}): that took 35 pairs, and
    # the derivative passes of 12 FFT calls, off the count.
    for _ in range(2):
        wk_calls.clear()
        fft_counts.update(rfft=0, irfft=0)
        run_all(Corpus(), exploratory=True)
        # wk_calls holds each field, so no two live fields share an id.
        assert len({(id(K), k) for K, k in wk_calls}) == len(wk_calls) == 47
        assert fft_counts["rfft"] + fft_counts["irfft"] == 144


def test_run_all_computes_each_cached_functional_once_per_field(monkeypatch):
    # The suites ask for V 32 times over 20 distinct fields and for a
    # curvature integral 28 times over 13 distinct (field, m) pairs; each
    # field computes its own once.
    asked, computed, fields = Counter(), Counter(), []
    real = SupportField.memo

    def memo(K, fn, *args):
        asked[fn.__name__] += 1
        computed[fn.__name__] += (fn, *args) not in K._memo
        fields.append(K)  # so that no two fields of the run share an id
        return real(K, fn, *args)

    monkeypatch.setattr(SupportField, "memo", memo)
    run_all(Corpus(), exploratory=True)
    assert asked["V_functional"] == 32 and computed["V_functional"] == 20
    assert asked["curvature_integral"] == 28 and computed["curvature_integral"] == 13


def test_run_all_takes_each_p_and_each_convexity_once(p_tensor_calls, monkeypatch):
    # Each field caches p_m(A) (`SupportField.pA`), its Euclidean density
    # p_n(D^2 u + u I) (`euclid_density`) and its convexity report: no
    # (array, m) reaches p_tensor twice, and the suites' 240 convexity
    # calls on 125 distinct fields classify each field once.
    asked, computed = [], []
    real = SupportField.memo

    def memo(K, fn, *args):
        if fn is convexity.__wrapped__:
            asked.append(K)  # so that no two fields of the run share an id
            computed.append((fn, *args) not in K._memo)
        return real(K, fn, *args)

    monkeypatch.setattr(SupportField, "memo", memo)
    run_all(Corpus(), exploratory=True)
    assert len({(id(A), m) for A, m in p_tensor_calls}) == len(p_tensor_calls) == 137
    assert len(asked) == 240
    assert sum(computed) == len({id(K) for K in asked}) == 125


def test_run_all_reads_no_boundary_point(ambient_gradient_calls):
    # The suites read coshr, u~, lambda~ and dmu of 74 fields' boundary
    # data, but never X or nu, which are computed on their first read.
    run_all(Corpus(), exploratory=True)
    assert ambient_gradient_calls == []


def test_run_all_takes_each_fields_euclidean_density_once(euclid_form_calls):
    # The bridge's volumes, Firey sums and the iso records read p_n(D^2 u +
    # u I) through the field's cache: 20 fields build their form once each,
    # where 40 builds were made when each caller built its own.
    run_all(Corpus(), exploratory=True)
    assert len({id(K) for K, in euclid_form_calls}) == len(euclid_form_calls) == 20


def test_bm_general_builds_each_p_sum_once(monkeypatch):
    # Each of its 6 sums serves every k of its (n, p): 15 records.
    sums = []
    real = verify.p_sum
    monkeypatch.setattr(verify, "p_sum", lambda *args: sums.append(args) or real(*args))
    records = run_suite("xp_bm_general", Bodies(CORPUS))
    assert len(records) == 15
    assert len(sums) == 6


def test_odd_s2_perturbed_body_is_one_body_for_every_flavor():
    # The odd S^2 body takes no flavor, so its flavors share one entry;
    # on S^1, and for even bodies, the flavor changes the body.
    bodies = Bodies(CORPUS)
    K = bodies.perturbed(2, 0.7, even=False, flavor=1)
    assert bodies.perturbed(2, 0.7, even=False, flavor=2) is K
    for flavor in (0, 1, 2):
        fresh = verify._perturbed(bodies.grid(2), 0.7, False, flavor)
        assert fresh.phi.tobytes() == K.phi.tobytes()
    for n, even in ((1, False), (1, True), (2, True)):
        one, two = (bodies.perturbed(n, 0.7, even, flavor) for flavor in (1, 2))
        assert one is not two and not np.array_equal(one.phi, two.phi)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no_such_suite", Bodies(CORPUS))


def test_shared_body_set_gives_the_records_of_a_fresh_one():
    bodies = Bodies(CORPUS)
    for name in ("af_chain", "weighted_af", "af_chain"):
        assert run_suite(name, bodies) == run_suite(name, Bodies(CORPUS))


def test_equality_witnesses_are_tight():
    # Ball witnesses marked equality_expected must sit on the equality
    # case within the equality tolerance.
    for name in SUITES:
        for r in run_suite(name, Bodies(CORPUS)):
            if r.equality_expected:
                scale = max(1.0, abs(r.lhs), abs(r.rhs))
                assert abs(r.gap) <= 1e-6 * scale, (name, r.case, r.gap)


def test_counterexample_records():
    records = run_suite("counterexample", Bodies(CORPUS))
    negative = [r for r in records if r.gap < 0.0]
    # Only the small-scale cases go negative; a negative gap is exactly
    # what those records certify, so they pass.
    assert negative and all("scale2" in r.case for r in negative)
    for r in negative:
        assert r.passed
        assert r.gap == pytest.approx(-0.005160423558178584, abs=1e-12)
    assert any(
        r.gap == pytest.approx(0.75339304029571963, abs=1e-12) for r in records
    ), sorted(r.case for r in records)
    # The closed-form S values agree with a grid evaluation of the balls.
    cross = [r for r in records if "cross-check" in r.case]
    assert len(cross) == 1 and cross[0].passed


def test_exploratory_suites_record_without_judging():
    recs = run_suite("xp_bm_general", Bodies(CORPUS))
    assert all(r.suite.startswith("xp_") for r in recs)
    # Exploratory records never flip the aggregate verdict.
    flipped = [
        CheckRecord("xp_demo", "c", 0.0, 1.0, -1.0, False, False)
    ]
    base = [CheckRecord("bm_balls", "c", 1.0, 0.0, 1.0, False, True)]
    assert all_passed(base + flipped)
    assert not all_passed(
        base + [CheckRecord("bm_balls", "d", 0.0, 1.0, -1.0, False, False)]
    )


def test_run_all_includes_exploratory_on_request():
    plain = run_all(CORPUS)
    assert {r.suite for r in plain} == set(SUITES)
    both = run_all(CORPUS, exploratory=True)
    assert {r.suite for r in both} == set(SUITES) | set(EXPLORATORY_SUITES)
    assert all_passed(both)


def test_csv_schema(tmp_path):
    records = run_suite("bm_balls", Bodies(CORPUS))
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["suite", "case", "lhs", "rhs", "gap", "equality_expected", "pass"]
    assert len(rows) == len(records) + 1
    first = rows[1]
    assert first[0] == "bm_balls"
    assert float(first[2]) == pytest.approx(records[0].lhs, rel=1e-15)
    assert first[5] in ("true", "false")
    assert first[6] in ("true", "false")


def test_random_fields_are_uniformly_h_convex():
    grids = [make_grid(1, 96), make_grid(2, 16)]
    fields = random_h_convex_fields(7, grids, 10)
    assert len(fields) == 10
    for K in fields:
        assert convexity(K).classification == "uniformly-h-convex"
    again = random_h_convex_fields(7, grids, 10)
    for K, K2 in zip(fields, again):
        assert np.array_equal(K.phi, K2.phi)
    different = random_h_convex_fields(8, grids, 10)
    assert any(
        not np.array_equal(K.phi, K2.phi) for K, K2 in zip(fields, different)
    )
