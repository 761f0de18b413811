"""Streaming erasure codes with per-symbol delay guarantees.

Single-user streaming codes recover every source symbol within a fixed
delay after a burst erasure; the two-user embedded construction serves a
second, slower receiver from the same parity stream at no rate cost.
An information-debt model of random linear codes and an exhaustive
Gaussian-elimination oracle provide baselines for comparison.
"""

from .bebc import (BurstParityMatrix, LdBebcCode, UnrecoverableBurstError,
                   make_burst_parity, verify_burst_correcting,
                   verify_delay_profile)
from .channel import (ErasurePattern, apply, parse_pattern, periodic_pattern,
                      segmented_bursts, single_burst)
from .decoder import Component, StreamLog, TraceEvent, staged_decode
from .desco import (CombinedCodec, DeScoCodec, DeScoParams, desco_build,
                    descriptor, ia_sco_build, optimal_delay, parse_descriptor,
                    rate_upper_bound, sco_build, sweep_max_delay)
from .gf import GF, IncrementalSystem, InconsistentSystemError, default_field
from .oracle import (DebtState, ml_decode_times, rlc_burst_losses,
                     rlc_decode_times, rlc_partial_threshold,
                     rlc_perfect_threshold)
from .sco import (ScoCodec, ScoParams, capacity, memory_bound, split_urgent,
                  vertical_interleave)

__version__ = "0.1.0"
