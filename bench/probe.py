"""Set-up probe, run in a fresh interpreter per measurement.

Usage: ``python3 bench/probe.py '<workloads.Command as JSON>' <spec path>``.  Times
``import tracegen`` plus everything the command builds before its first draw
(spec, clique family, Mobius polynomial, root, tuned parameter, chains) and
prints one JSON line.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import tracegen  # noqa: E402
from tracegen import MonoidBundle  # noqa: E402

T1 = time.perf_counter()


def build(cmd, path):
    bundle = MonoidBundle.from_file(path)
    if cmd["kind"] == "sample" and cmd["mode"] == "exact-k":
        p = bundle.optimal_parameter(cmd["k"])
        for cb in bundle.components:
            cb.chain(p)
        bundle.expected_acceptance(cmd["k"], p)
    elif cmd["kind"] == "sample" and cmd["mode"] == "subuniform":
        for cb in bundle.components:
            cb.chain(cmd["p"])
    else:
        # boundary, estimate and verify run on irreducible specs here, which
        # all start from the chain at the principal root
        bundle.boundary_chain()


def blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    import json

    cmd = json.loads(sys.argv[1])
    build(cmd, sys.argv[2])
    t2 = time.perf_counter()
    import numpy

    print(json.dumps({
        "import_s": T1 - T0,
        "setup_s": t2 - T0,
        "tracegen": tracegen.__file__,
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
