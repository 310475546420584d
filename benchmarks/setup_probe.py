"""Time one cold start: ``import braidmat``, the first ``load_config`` and
the first ``BraidFamily.create``, in the fresh process running this file.

Usage: python3 setup_probe.py SRC_DIR CONFIG.json
Prints {"setup_s": seconds} on stdout.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import braidmat  # noqa: E402

braidmat.BraidFamily.create(braidmat.load_config(sys.argv[2]))
print(json.dumps({"setup_s": perf_counter() - start}))
