"""``netpower serve`` under the speed meter, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py METER.json SPANS.json|- serve ...

Starts the speed meter (:mod:`perfbench.speed`) first, so the server's
set-up and every request it answers can be read in reference seconds.
With a spans path it also imports the serving modules and wraps their
layer entry points with :mod:`perfbench.tracer`.  It then calls
``repro.cli.main`` with the remaining arguments and, once the server
has exited (on SIGTERM, like the plain command), writes the meter's
bursts to ``METER.json`` and the recorded spans to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main() -> int:
    from perfbench import speed

    meter = speed.Meter().start()
    meter_path, spans_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import repro.cli

    recorder = None
    if spans_path != "-":
        # Loaded before install() so the names these modules imported
        # (e.g. parse_predict_request in repro.serve.app) are rebound
        # too; the CLI would only import them once serving starts.
        import repro.serve.app  # noqa: F401
        import repro.serve.state  # noqa: F401

        from perfbench import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    try:
        code = repro.cli.main(args)
    finally:
        meter.stop()
        meter.dump(Path(meter_path))
    if recorder is not None:
        recorder.dump(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main())
