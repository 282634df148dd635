"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/bench/run.py
--workload NAME --seed N --seconds S --trace 0|1``.

Run as a plain script from the root of a checkout, so it puts that root on
``sys.path`` itself; everything else is ``python -m benchmarks.bench run``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.bench.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
