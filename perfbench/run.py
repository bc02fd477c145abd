"""Run one catsent benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload acsa-long --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Failed checks and the input make-up go to standard error.
"""

import ctypes
import os
import sys

# One BLAS/OpenMP thread, set before numpy is first imported: with the
# default thread count on a shared 2-CPU box step times spread far more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# Fixed glibc allocator thresholds, set before numpy allocates anything.
# With the default, dynamic ones, some processes and not others return the
# program's large per-batch temporaries to the kernel after every predict
# pass and fault them in again (31k minor faults a pass on tacsa-forgetting),
# which made whole runs about 20% slower at random.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
_libc = ctypes.CDLL(None)
if not (_libc.mallopt(M_MMAP_THRESHOLD, 64 << 20) and _libc.mallopt(M_TRIM_THRESHOLD, 256 << 20)):
    sys.exit("error: mallopt failed; the benchmark needs glibc's allocator")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "catsent", "__init__.py")):
        print(f"error: no catsent sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import catsent
    if os.path.dirname(os.path.abspath(catsent.__file__)) != os.path.join(SRC, "catsent"):
        print(f"error: imported catsent from {catsent.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, r = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        workdir, process_age)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in r.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    info = {"makeup": r.makeup(), "max_grad_error": max(r.grad_errors, default=None),
            "host_probe_ms": {k: 1e3 * sorted(v)[len(v) // 2]
                              for k, v in r.probe.samples.items() if v}}
    if not args.trace:
        info["unscaled"] = {k: v for k, (v, _) in r.end_to_end(scaled=False).items()}
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
