"""Run one crashcast command in this fresh interpreter and record its cost.

    python3 child.py RESULT_JSON MODE [CRASHCAST ARGS...]

MODE is ``probe`` (import ``crashcast.cli`` and stop), ``plain`` (run the
command) or ``trace`` (run it with the layers wrapped, see tracer.py). The
result file gets the moments the imports finished and the command started
on the system-wide monotonic clock, so the parent can place them against
the moment it started this process; the command's wall time; the exit code;
the process's peak RSS; and, when tracing, the aggregated spans.
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    # VmHWM belongs to this process image. ru_maxrss is the fallback only:
    # after exec it can still hold the parent's peak.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import crashcast.cli
    result = {"ready": time.monotonic(), "module": crashcast.cli.__file__}
    rc = 0
    if mode != "probe":
        recorder = None
        if mode == "trace":
            import tracer
            recorder = tracer.Recorder()
            recorder.install()
        result["start"] = time.monotonic()
        rc = crashcast.cli.main(argv)
        result["cmd_s"] = time.monotonic() - result["start"]
        result["rc"] = rc
        result["peak_rss_kib"] = peak_rss_kib()
        if recorder is not None:
            result["layers"] = tracer.aggregate(recorder.spans)
            result["tape_nodes"] = recorder.tape_nodes
            result["missing_sites"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
