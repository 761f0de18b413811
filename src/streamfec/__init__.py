"""Streaming erasure codes with per-symbol delay guarantees.

Single-user streaming codes recover every source symbol within a fixed
delay after a burst erasure; the two-user embedded construction serves a
second, slower receiver from the same parity stream at no rate cost.
An information-debt model of random linear codes provides the baseline
of the loss experiments.
"""

from .bebc import BurstParityMatrix, make_burst_parity, verify_burst_correcting
from .channel import apply, parse_pattern, segmented_bursts, single_burst
from .decoder import Component, StreamLog, TraceEvent, staged_decode
from .desco import (CombinedCodec, DeScoCodec, DeScoParams, descriptor,
                    ia_sco_build, optimal_delay, parse_descriptor,
                    rate_upper_bound, sco_build)
from .gf import GF, IncrementalSystem, InconsistentSystemError, default_field
from .oracle import rlc_burst_losses, rlc_decode_times
from .sco import (ScoCodec, ScoParams, capacity, memory_bound,
                  vertical_interleave)

__version__ = "0.1.0"
