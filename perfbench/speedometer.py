"""Sample the speed of the CPU that a measured command runs on.

    python3 speedometer.py OUT_JSON

The benchmark pins itself, and so every process it starts, to one CPU, and
runs this next to each timed command. The machines it runs on change speed
by a third from one second to the next and by a quarter from one minute to
the next, as other tenants come and go. Every PERIOD_S this wakes, times
one short chunk of interpreter work and sleeps again, so the samples show
how fast the shared CPU was while the command ran; it takes about 1% of
that CPU. It prints ``ready`` once set up and writes
``[[start, seconds], ...]`` (start on the system-wide monotonic clock) to
OUT_JSON when it gets SIGTERM.
"""

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.05
_X = np.arange(3.0)


def chunk() -> None:
    """Interpreter work with small-array numpy calls, about half a
    millisecond of it. Its time tracked the commands' better than that of
    array work did, for the array-heavy commands too."""
    acc = 0.0
    rows: dict[int, dict] = {}
    for i in range(150):
        y = np.hypot(_X[0] + i, _X[1])
        acc += float(np.arctan2(y, 1.0))
        rows[i % 97] = {"a": acc, "c": f"k{i % 89}"}


def main() -> int:
    out_path = sys.argv[1]
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    chunk()  # the first call is slower; leave it out
    print("ready", flush=True)
    samples = []
    while not stopped:
        start = time.monotonic()
        chunk()
        samples.append((start, time.monotonic() - start))
        time.sleep(PERIOD_S)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
