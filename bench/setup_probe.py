"""Set-up time of a fresh process: import chainlearn (numpy, scipy.optimize,
scipy.sparse) and load and validate the given configs.  Prints the seconds.

Usage: python3 bench/setup_probe.py CONFIG...
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainlearn.harness import load_config  # noqa: E402

for path in sys.argv[1:]:
    load_config(path)
print(repr(time.perf_counter() - t0))
