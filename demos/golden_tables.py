"""Print the channel streams of the small reference constructions.

Shows, for a shared random bit source, the (2,3) single-user code, the
(1,2) code and its step-2 interleave, and the two rate-2/3 two-user
codes (interference avoidance vs. embedded) side by side.
"""

import random

import numpy as np

from streamfec.desco import DeScoCodec, DeScoParams, ia_sco_build, sco_build
from streamfec.gf import GF
from streamfec.sco import ScoParams, vertical_interleave

GF2 = GF(1)
SLOTS = 14


def show_single(title, params, src):
    stream = sco_build(params).encode_stream(src)
    print(f"\n{title}  (rate {params.rate})")
    for row in range(params.t):
        print("  s%d |" % row, " ".join(str(sym[row]) for sym in stream))
    for row in range(params.b):
        print("  p%d |" % row,
              " ".join(str(sym[params.t + row]) for sym in stream))


def show_combined(title, codec, src):
    stream = codec.encode_stream(src)
    n = codec.subs_per_slot
    print(f"\n{title}")
    for row in range(n):
        print("  s%d |" % row, " ".join(str(sym[row]) for sym in stream))
    for row in range(codec.parities_per_slot):
        print("  q%d |" % row, " ".join(str(sym[n + row]) for sym in stream))


def main():
    rng = random.Random(1)
    src3 = np.array([[rng.randrange(2) for _ in range(3)] for _ in range(SLOTS)])
    src2 = np.array([[rng.randrange(2) for _ in range(2)] for _ in range(SLOTS)])

    show_single("(2,3) code, burst 2 / delay 3", ScoParams(2, 3, field=GF2), src3)
    show_single("(1,2) code", ScoParams(1, 2, field=GF2), src2)
    show_single("(2,4) code = (1,2) interleaved by 2",
                vertical_interleave(ScoParams(1, 2, field=GF2), 2), src2)
    show_combined("interference avoidance {(1,2),(2,6)}: q = p1 + p2 << 2",
                  ia_sco_build(1, 2, 2, field=GF2), src2)
    show_combined("embedded {(1,2),(2,5)}: q = p1 + reversed p2 << 3",
                  DeScoCodec(DeScoParams(1, 2, 2), field=GF2), src2)


if __name__ == "__main__":
    main()
