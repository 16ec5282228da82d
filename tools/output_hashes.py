"""SHA-256 of the outputs of passes 0 and 1 of every benchmark workload.

Usage: python tools/output_hashes.py [ROOT]

ROOT is a checkout of the repository (default: the one holding this
script). One line is printed per workload and pass at benchmark seed 0:
the recourse solves' fitness and trace, the frontier points and the
stability rows, hashed. Two checkouts that print the same lines computed
the same results, bit for bit.
"""

import hashlib
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def feed(h, value):
    if isinstance(value, (list, tuple)):
        for v in value:
            feed(h, v)
    elif isinstance(value, dict):
        for k in sorted(value):
            feed(h, k)
            feed(h, value[k])
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif hasattr(value, "__dataclass_fields__"):
        for k in value.__dataclass_fields__:
            feed(h, getattr(value, k))
    else:
        h.update(repr(value).encode())


for wl in ("recourse", "frontier", "stability"):
    panel, inst = inputs.build(wl)
    for i in (0, 1):
        out = workloads.PASSES[wl](panel, inst, workloads.pass_seed(0, i))
        if wl == "recourse":      # fitness and trace of each solve
            out = [(r.fitness, r.trace) for r in out]
        h = hashlib.sha256()
        feed(h, out)
        print(wl, i, h.hexdigest())
