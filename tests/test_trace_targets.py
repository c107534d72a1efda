"""The benchmark's tracer (bench/spans.py) finds every function it wraps,
and every layer a workload exercises sees a call.

It looks its targets up by module-global name, so a renamed or inlined
function would otherwise surface only as a stderr line in a traced run; a
function that stays defined but leaves the path a command takes would
surface only as a layer reported missing.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import ladder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from homomesy import cli, engine  # noqa: E402,F401  (load every module the tracer patches)
from homomesy.gallery import ssyt  # noqa: E402


def test_every_trace_target_exists_and_uninstall_restores_it():
    originals = (engine.orbit_average, ssyt.SSYT.__dict__["__post_init__"])
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        assert engine.orbit_average is not originals[0]
    finally:
        tracer.uninstall()
    assert engine.orbit_average is originals[0]
    assert ssyt.SSYT.__post_init__ is originals[1]


@pytest.mark.parametrize("workload", ladder.WORKLOADS)
def test_a_tiny_traced_round_measures_every_layer(workload, tmp_path, monkeypatch):
    # the benchmark collects garbage before every case; tiny cases need not
    monkeypatch.setattr(run.gc, "collect", lambda: 0)
    runner = run.Runner(cli, ladder.build(workload, 7, tmp_path, tiny=True))
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        _, ranges = runner.round(tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    metrics, missing = spans.summarize(tracer, ranges, runner.cases, runner.state_counts)
    assert missing == []
    assert len(metrics) == 24  # the 26 per-layer metrics less output bytes and overhead
