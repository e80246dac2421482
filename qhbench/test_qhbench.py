"""Tests of the benchmark's own logic.  Run: python3 -m pytest qhbench -q"""

import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import gauge  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import ops  # noqa: E402
import quiverhopf  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from quiverhopf import linalg, yd  # noqa: E402


def test_self_time_on_nested_tree():
    # 0 [0,10] has children 1 [1,4] and 2 [3,6] (overlapping) and 3 [8,12]
    # (running past its parent); 1 has child 4 [2,3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    # coverage of 0 is [1,6] + [8,10] = 7; of 1 is [2,3] = 1
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_metrics_do_not_count_recursion_twice():
    tracer = spans.Tracer()
    fid = tracer.names.index("linalg.rank")
    # rank [0,4] calls rank [1,3]; a second top-level rank [5,6]
    tracer.fid[:] = [fid, fid, fid]
    tracer.start[:] = [0.0, 1.0, 5.0]
    tracer.end[:] = [4.0, 3.0, 6.0]
    tracer.parent[:] = [-1, 0, -1]
    tracer.tag.update({0: (2, 3), 1: (2, 3), 2: (4, 4)})
    m = spans.metrics(tracer)
    assert m["linalg.rank.calls"] == 3
    assert m["linalg.rank.s"] == pytest.approx(5.0)
    assert m["linalg.rank.self_s"] == pytest.approx(5.0)
    assert m["linalg.rank.cells"] == 6 + 6 + 16
    assert m["trace.self_sum_s"] == pytest.approx(5.0)


def _op(name, run, known_defect=None):
    return ops.Op(name, run, lambda rec: None if rec == {"x": 1} else "wrong",
                  known_defect)


def _boom(seed):
    raise ZeroDivisionError("boom")


def _spin(seed):
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    return {"x": 1}


def test_raising_operation_fails_without_aborting_the_run():
    op_list = [_op("raises", _boom), _op("ok", lambda s: {"x": 1}),
               _op("wrong", lambda s: {"x": 2}, known_defect="known")]
    p = worker.run_pass(op_list, seed=0)
    assert p.reasons[0].startswith("raised ZeroDivisionError")
    assert p.reasons[1] is None and p.reasons[2] == "wrong"
    problems = []
    attempted, failed, unexpected, outcomes = worker._tally(op_list, [p, p], problems)
    assert (attempted, failed) == (6, 4)
    assert unexpected == ["raises: raised ZeroDivisionError: boom"]
    assert problems == [] and [o["ok"] for o in outcomes] == [False, True, False]


def test_install_and_uninstall_rebind_every_namespace():
    originals = {"linalg.matmul": linalg.matmul, "yd.nichols_dims": yd.nichols_dims,
                 "isomorphic": quiverhopf.isomorphic,
                 "rsr.isomorphic": quiverhopf.rsr.isomorphic,
                 "cli.verify_yd": quiverhopf.cli.verify_yd}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert linalg.matmul is not originals["linalg.matmul"]
        assert quiverhopf.isomorphic is quiverhopf.rsr.isomorphic
        assert quiverhopf.cli.isomorphic is quiverhopf.rsr.isomorphic
        assert quiverhopf.rsr.isomorphic is not originals["rsr.isomorphic"]
        assert len(spans.leftover_wrappers()) > len(spans.FUNCTIONS)
        g = quiverhopf.parse_group("S3")
        rsr = quiverhopf.make_rsr(g, quiverhopf.parse_ramification(g, "(0 1 2):1"),
                                  None, {2: (1,)})
        dims = yd.nichols_dims(yd.yd_from_rsr(rsr), 3)
    finally:
        assert tracer.uninstall() == []
    assert spans.leftover_wrappers() == []
    assert linalg.matmul is originals["linalg.matmul"]
    assert yd.nichols_dims is originals["yd.nichols_dims"]
    assert quiverhopf.isomorphic is originals["isomorphic"]
    assert quiverhopf.cli.verify_yd is originals["cli.verify_yd"]
    assert dims == oracles.S3_THREE_CYCLE[1][:4]
    m = spans.metrics(tracer)
    assert m["yd.nichols_dims.calls"] == 1
    assert m["yd.quantum_symmetrizer.calls"] == 2
    assert m["yd.quantum_symmetrizer.max_dim"] == 2 ** 3
    assert m["yd.quantum_symmetrizer.deg3_s"] > 0
    assert m["yd.nichols_dims.rank_s"] > 0
    assert m["linalg.matmul.mac"] > 0 and m["linalg.rank.cells"] == 4 ** 2 + 8 ** 2
    assert m["groups.parse_group.calls"] == 1


def _insertion_oracle(spec, ram, max_deg):
    g = quiverhopf.parse_group(spec)
    field = quiverhopf.choose_prime(g)
    r = quiverhopf.parse_ramification(g, ram)
    out = []
    for t in quiverhopf.enumerate_types(g, r, field):
        v = yd.yd_from_rsr(quiverhopf.rsr_from_type(g, r, t, field))
        c = yd.braiding(v)
        out.append([1, v.dim] + [
            linalg.rank(yd.quantum_symmetrizer(c, n, yd.insertion_word), v.p)
            for n in range(2, max_deg + 1)])
    return out


def test_frozen_nichols_tables_match_the_insertion_word_oracle():
    assert _insertion_oracle("S3", "(0 1 2):1", 5) == oracles.S3_THREE_CYCLE
    s4 = _insertion_oracle("S4", "(0 1):1", 3)
    assert s4[0] == s4[2] == oracles.S4_TRANSPOSITION_OTHER
    assert s4[1] == s4[3] == oracles.FOMIN_KIRILLOV_4


def test_small_ramifications_match_the_census_shape():
    assert len(ops.small_ramifications("S3", 3, 3)) == 1 + 3 * 3 + 3 * 9
    assert len(ops.small_ramifications("S4", 2, 1)) == 1 + 5 * 2 + 10 * 1


def test_gauge_factor_and_handler_time():
    probe = gauge.Gauge()
    probe.samples[:] = [1.0, 0.5]
    probe.wall, probe.cpu = 0.25, 0.2
    mark = probe.mark()
    assert probe.since(mark) == (0.0, 0.0, 0.75)     # no new sample: all so far
    probe.samples += [2.0, 1.0]
    probe.wall, probe.cpu = 0.5, 0.3
    assert probe.since(mark) == pytest.approx((0.25, 0.1, 1.5))


def test_gauge_samples_during_a_pass_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = gauge.Gauge()
    probe.start()
    try:
        p = worker.run_pass([_op("spin", _spin)], seed=0, meter=probe)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3 and p.reasons == [None]
    assert 0 < p.wall < p.times[0] and p.speed > 0



def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(ops.WORKLOADS)
    per_layer = set(spans.metrics(spans.Tracer())) - {"trace.self_sum_s"}
    per_layer |= {"trace.self_sum_share", "trace.wall_s", "trace.overhead_s", "error_rate"}
    assert {(m["name"], m["unit"]) for m in doc["per_layer"]} == \
        {(name, worker.unit_of(name)) for name in per_layer}
    assert {m["name"] for m in doc["end_to_end"]} == \
        {"wall_ref_s", "cpu_ref_s", "peak_rss_mb", "setup_s"}


def test_install_skips_a_function_the_package_no_longer_has(monkeypatch):
    monkeypatch.delattr(quiverhopf.yd, "braiding")
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.uninstall() == []
    assert tracer.missing == ["yd.braiding"]
