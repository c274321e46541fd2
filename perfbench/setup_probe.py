"""Set-up time of the package, measured in a fresh process.

    python3 perfbench/setup_probe.py SRC REPEATS CONFIG...

Imports ``billiards`` and ``billiards.cli`` from ``SRC`` and loads every
config, ``REPEATS`` times (the package is dropped from ``sys.modules``
between repeats), and prints one JSON object: the median raw time and the
speed factor measured meanwhile (see ``speed.py``).  numpy is imported
first and not timed: it is a dependency, the same for every commit.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy  # noqa: F401

import speed


def main(argv: list[str]) -> None:
    src, repeats, configs = argv[0], int(argv[1]), argv[2:]
    sys.path.insert(0, src)
    times = []
    with speed.SpeedSampler() as sampler:
        for _ in range(repeats):
            for name in [m for m in sys.modules if m.partition(".")[0] == "billiards"]:
                del sys.modules[name]
            t0 = time.perf_counter()
            importlib.import_module("billiards")
            importlib.import_module("billiards.cli")
            load_config = importlib.import_module("billiards.config").load_config
            for path in configs:
                load_config(path)
            times.append(time.perf_counter() - t0)
    print(json.dumps({"raw_s": statistics.median(times), "factor": sampler.factor()}))


if __name__ == "__main__":
    main(sys.argv[1:])
