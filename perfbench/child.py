"""Run one realbott command in this process, as `python -m realbott.cli` does.

Usage: python child.py REPORT_FD TRACE ARGS...

ARGS go to the realbott command unchanged.  When the command ends, the
process writes one JSON object to the file descriptor REPORT_FD: its own
peak resident set (`VmHWM`, which belongs to this process image alone; the
`wait4` figure would also count the parent's pages from before `exec`) and,
when TRACE is 1, the per-layer trace of `tracer.Tracer`.
"""

import json
import os
import sys

PROG_NAME = "python -m realbott.cli"


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    report_fd, trace, args = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    try:
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.time_imports()
        from realbott import cli

        if tracer is not None:
            tracer.wrap_all()
        cli.main(args=args, prog_name=PROG_NAME)
    finally:
        report = {"peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            report["trace"] = tracer.report()
        with os.fdopen(report_fd, "w") as out:
            json.dump(report, out)


if __name__ == "__main__":
    main()
