"""Wrappers: what they record, and what happens when a target is gone."""

import types

import pytest

import layer_metrics
import tracing
from tracing import FIRST, LAST


def test_sync_wrapper_records_only_while_enabled():
    rec = tracing.Recorder("t")
    wrapped = tracing.sync_wrapper(rec, "x.f", lambda a, b: a + b,
                                   extra=lambda result, args: result * 10)
    assert wrapped(1, 2) == 3 and rec.spans == []
    rec.enabled = True
    assert wrapped(1, 2) == 3
    (name, t0, t1, extra), = rec.spans
    assert (name, extra) == ("x.f", 30) and t1 >= t0


def test_sync_wrapper_records_a_raising_call():
    rec = tracing.Recorder("t")
    rec.enabled = True

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracing.sync_wrapper(rec, "x.boom", boom)()
    assert [span[0] for span in rec.spans] == ["x.boom"]


def test_generator_wrapper_records_one_span_per_resumption():
    rec = tracing.Recorder("t")
    rec.enabled = True

    def protocol(n):
        got = []
        for i in range(n):
            got.append((yield f"future{i}"))
        return got

    gen = tracing.gen_wrapper(rec, "p.op", protocol)(2)
    assert isinstance(gen, types.GeneratorType)
    assert next(gen) == "future0"
    assert gen.send("a") == "future1"
    with pytest.raises(StopIteration) as stop:
        gen.send("b")
    assert stop.value.value == ["a", "b"]
    assert [span[3] for span in rec.spans] == [FIRST, 0, LAST]


def test_generator_wrapper_forwards_thrown_exceptions():
    rec = tracing.Recorder("t")
    rec.enabled = True

    def protocol():
        try:
            yield "wait"
        except ValueError:
            return "recovered"
        return "unreachable"

    gen = tracing.gen_wrapper(rec, "p.op", protocol)()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(ValueError("nak"))
    assert stop.value.value == "recovered"
    assert [span[3] for span in rec.spans] == [FIRST, LAST]


def test_a_call_that_finishes_without_suspending_is_first_and_last():
    rec = tracing.Recorder("t")
    rec.enabled = True

    def immediate():
        return 5
        yield   # pragma: no cover - makes this a generator function

    with pytest.raises(StopIteration):
        next(tracing.gen_wrapper(rec, "p.op", immediate)())
    assert rec.spans[0][3] == FIRST | LAST


def test_missing_symbols_are_noted_not_raised():
    rec = tracing.Recorder("t")
    tracing.install(rec, probes=[
        ("gone", "repro.no_such_module", "Thing", ("a", "b"), "sync"),
        ("gone", "repro.net.frame", "NoSuchClass", ("c",), "sync"),
        ("net.frame", "repro.net.frame", "", ("no_such_function",), "sync"),
    ])
    assert set(rec.missing) == {"gone.a", "gone.b", "gone.c",
                                "net.frame.no_such_function"}
    assert all(rec.missing.values())          # each carries its reason


def test_missing_probe_makes_its_metrics_null_with_a_reason():
    values = {name: 1.0 for name, *_rest in layer_metrics.CATALOGUE}
    metrics, reasons = layer_metrics.finalize(
        values, {"net.aio.run_future": "AsyncioRuntime has no run_future"})
    assert metrics["net.aio.bridge_self_us"] == {"value": None, "unit": "us"}
    assert metrics["net.aio.run_future_per_op"]["value"] is None
    assert "has no run_future" in reasons["net.aio.bridge_self_us"]
    # everything that does not depend on that probe keeps its number
    assert metrics["core.client.self_us"]["value"] == 1.0
    assert set(metrics) == {name for name, *_rest in layer_metrics.CATALOGUE}


def test_install_wraps_and_uninstall_restores():
    from repro.net import frame
    from repro.net.aio import AsyncioRuntime

    original_encode = frame.encode_frame
    original_bridge = AsyncioRuntime.__dict__["run_future"]
    rec = tracing.Recorder("t")
    tracing.install(rec)
    try:
        assert not rec.missing, rec.missing   # every probe resolves today
        assert frame.encode_frame is not original_encode
        assert AsyncioRuntime.__dict__["run_future"] is not original_bridge
    finally:
        rec.uninstall()
    assert frame.encode_frame is original_encode
    assert AsyncioRuntime.__dict__["run_future"] is original_bridge
