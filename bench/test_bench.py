"""Self-tests of the benchmark: percentile rule, self-time reduction, oracles."""

import json
import os
import time

import pytest

import calibration
import oracle
import wl_algebra
import wl_cli
import wl_tame
from common import canonical_json
from massdual import tame_total_masses
from massdual.verify import tame_catalog
from tracing import Span, Tracer, percentile, samples_beyond, self_time_by_name, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_percentile_interpolates_between_closest_ranks():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile(list(reversed(values)), 90) == percentile(values, 90)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(101, 90) == 10
    assert samples_beyond(90, 90) == 9
    assert samples_beyond(20, 50) == 10


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        Span("item", 0, 100, None, "a"),
        Span("x", 10, 30, 0, "a"),
        Span("y", 20, 50, 0, "a"),  # overlaps x: covered once
        Span("z", 90, 120, 0, "a"),  # only 90..100 lies inside the parent
        Span("w", 12, 18, 1, "a"),  # a grandchild counts against x, not item
    ]
    assert self_times(spans) == [50e-9, 14e-9, 30e-9, 30e-9, 6e-9]
    assert self_time_by_name(spans + [Span("x", 200, 210, None, "b")])["x"] == pytest.approx(24e-9)


def test_tracer_links_nested_calls_and_off_records_nothing():
    tr = Tracer(True)
    assert tr.item("i1", lambda: tr.call("outer", lambda: tr.call("inner", lambda: 7))) == 7
    names = [(s.name, s.parent, s.item) for s in tr.spans]
    assert names == [("item", None, "i1"), ("outer", 0, "i1"), ("inner", 1, "i1")]
    off = Tracer(False)
    assert off.item("i1", lambda: off.call("outer", lambda: 3)) == 3
    off.count("n")
    assert off.spans == [] and not off.counts


@pytest.mark.parametrize("name,scenario", tame_catalog(), ids=[n for n, _ in tame_catalog()])
def test_pair_count_oracle_matches_engine_on_catalog(name, scenario):
    def matrix_of(g):
        m = scenario.rep.matrix(g)
        return m.perm, m.exps, m.root_order

    mv, mw = oracle.pair_count_masses(scenario.group.elements, matrix_of, scenario.q)
    masses = tame_total_masses(scenario)
    assert (mv, mw) == (masses.mass_v, masses.mass_w)


def test_partition_table_known_values():
    table = oracle.partition_table(50)
    assert sum(table[10]) == 42
    assert sum(table[50]) == 204226
    assert table[7][3] == 4


def test_seed_changes_values_not_cost():
    a = wl_algebra.ExactAlgebra(1, "unused")
    b = wl_algebra.ExactAlgebra(2, "unused")
    assert [i.id for i in a.items] == [i.id for i in b.items]
    for item_id in a.spec:
        if item_id.startswith("pair"):
            ta, ca, tb, cb, _ = a.spec[item_id]
            ua, da, ub, db, _ = b.spec[item_id]

            def shape(ts, base):
                return [(root, e - base) for _, root, e in ts]

            assert (shape(ta + tb, ta[0][2]), ca, cb) == (shape(ua + ub, ua[0][2]), da, db)
            assert [c for c, _, _ in ta + tb] == [c for c, _, _ in ua + ub]
    differs = [k for k in a.spec if a.spec[k] != b.spec[k]]
    assert len(differs) > 90
    for name, _, size, exponent, residue in wl_tame.RUNGS:
        primes = wl_tame.primes_in_class(residue, exponent, wl_tame.PRIME_CHOICES)
        assert len({oracle.multiplicative_order(q, exponent) for q in primes}) == 1


def test_benchmark_json_names_every_metric_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    produced = wl_tame.LAYER_METRICS + wl_algebra.LAYER_METRICS + wl_cli.LAYER_METRICS
    assert [m["name"] for m in spec["per_layer"]] == produced + ["trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == ["tame_groups", "exact_algebra", "cli_requests"]


def test_sampler_scales_by_nearby_chunks_and_drops_their_time():
    ref = calibration.REF_CHUNK_S
    s = calibration.Sampler()  # not entered: no timer
    s.starts = [0.0, 1.0, 2.0, 3.0]
    s.seconds = [ref, 2 * ref, 2 * ref, ref]
    # 1.0..2.5 holds the chunks at 1.0 and 2.0; with the one at 0.0 before
    # and the one at 3.0 after, the mean chunk is 1.5 * ref
    assert s.scaled(1.0, 2.5) == pytest.approx((1.5 - 4 * ref) / 1.5)
    # an interval between two chunks is scaled by those two
    assert s.scaled(0.5, 0.7) == pytest.approx(0.2 / 1.5)
    assert s.factor() == pytest.approx(1 / 1.5)


def test_periodic_sampler_samples_during_work_and_then_stops():
    with calibration.Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * calibration.PERIOD_S:
            pass
    taken = len(s.seconds)
    assert taken >= 3 and all(c > 0 for c in s.seconds)
    time.sleep(2 * calibration.PERIOD_S)
    assert len(s.seconds) == taken


def test_spawn_sampler_brackets_with_interpreter_starts():
    with calibration.Sampler(dict(os.environ)) as s:
        t0 = time.perf_counter()
        time.sleep(0.01)
        t1 = time.perf_counter()
        s.sample()
    assert len(s.seconds) == 2
    expected = (t1 - t0) * calibration.REF_START_S * 2 / sum(s.seconds)
    assert s.scaled(t0, t1) == pytest.approx(expected)


def test_canonical_json_ignores_key_order():
    assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json({"a": [1, 2], "b": 1})
