"""Run one iteration of a workload: its fedval CLI commands in one interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the fedval source directory, the commands (CLI argv
lists), whether to trace every layer or only the stage boundaries, and
an optional probe command that runs after timing ends with tracing
removed. The result (timestamps on the shared monotonic clock, peak
RSS, exit codes, spans and counters) is written to the spec's
``result`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stderr of one ``fedval`` command."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        err.write(traceback.format_exc())
        code = 2
    return code, err.getvalue()


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.

    ``ru_maxrss`` is not used: on Linux a child starts with its parent's
    high-water mark, so it would report the benchmark's own memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    from fedval import cli

    from tracing import LAYERS, STAGES, Tracer

    tracer = Tracer()
    tracer.install(LAYERS if spec["trace"] else STAGES)
    imported = time.monotonic()
    commands = []
    for argv in spec["commands"]:
        code, err = run_cli(cli.main, argv)
        commands.append({"argv": argv, "rc": code, "stderr": err})
        if code != 0:
            break
    end = time.monotonic()
    peak_kb = peak_rss_kb()
    tracer.uninstall()
    probe = None
    if spec.get("probe"):
        code, err = run_cli(cli.main, spec["probe"])
        probe = {"argv": spec["probe"], "rc": code, "stderr": err}
    result = {
        "imported": imported,
        "end": end,
        "peak_rss_kb": peak_kb,
        "commands": commands,
        "probe": probe,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
