"""The benchmark's tracer (bench/spans.py) finds every function it wraps.

It looks its targets up by module-global name, so a renamed or inlined
function would otherwise surface only as a stderr line in a traced run.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

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
