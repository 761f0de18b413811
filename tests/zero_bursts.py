"""One burst on an all-zero stream, decoded through ``codec.decode``.

``desco.burst_decode_log`` runs one burst's erasure shape at slot 0
with no stream around it, and ``desco.burst_outcomes`` reads its times
as ``verify`` does (``burst_outcome``); tests that need a burst at
another start or horizon, or a full stream decode as the reference for
those two, decode ``channel.single_burst`` here instead.
"""

import numpy as np

from streamfec.channel import single_burst
from streamfec.desco import burst_outcomes


def zero_burst_log(codec, start, length, horizon=None):
    """Log of an all-zero stream with one burst; the default horizon
    ends two slots past the latest deadline of the burst's last slot."""
    if horizon is None:
        horizon = start + length + max(codec.deadlines) + 2
    zeros = np.zeros((horizon, codec.symbol_width), dtype=np.int64)
    return codec.decode(zeros, single_burst(start, length, horizon))[1]


def burst_outcome(codec, length, user):
    """(worst delay, the user's misses) of one burst of the length, from
    ``burst_outcomes`` as ``verify`` reads it: alike at every start."""
    worst, misses = burst_outcomes(codec, [length])[length]
    return worst, misses[user - 1]
