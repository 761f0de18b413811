"""Time one cold set-up: import streamfec and build the given codecs.

Usage: python3 bench/setup_probe.py SRC_DIR SPEC [SPEC ...]
where SPEC is ``desco:b1,t1,a,b`` or ``ia:b1,t1,alpha``.

Runs in a fresh interpreter so the import is cold; it imports nothing
before the timer starts except what the interpreter has already loaded
and the reference loop of ``hostspeed.py``.  Prints the elapsed seconds
and the mean time of the reference loop run just before and just after.
"""

import sys
import time

from hostspeed import reference_seconds


def main() -> None:
    before = reference_seconds()
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import streamfec.cli  # noqa: F401  (the workloads drive the CLI)
    from streamfec.desco import DeScoCodec, DeScoParams, ia_sco_build

    for spec in sys.argv[2:]:
        kind, _, nums = spec.partition(":")
        args = [int(x) for x in nums.split(",")]
        if kind == "desco":
            DeScoCodec(DeScoParams(*args))
        elif kind == "ia":
            ia_sco_build(*args)
        else:
            raise SystemExit(f"unknown codec spec {spec!r}")
    elapsed = time.perf_counter() - start
    after = reference_seconds()
    print(repr(elapsed), repr((before + after) / 2))


if __name__ == "__main__":
    main()
