"""Staged peeling decoder shared by the single- and two-user codecs.

The received parity at slot t is the sum of one parity from each
component code (the embedded component delayed by its shift).  The
decoder walks the stream causally and keeps every such parity equation
pending until, for some component, all *other* components' shares are
fully determined; at that point the component's parity value can be
peeled off and fed to the incremental solver of the diagonal codeword it
belongs to.  With a single component this degenerates to immediate
per-diagonal elimination.

Progress is propagated to a fixpoint inside each time step, so recovery
times reflect the earliest slot at which the staged procedure can pin a
sub-symbol.

Everything runs on the stream clock: a rational-ratio codec's expanded
clock is folded into its ``Component`` templates, so a received slot is
one stream slot and every time is a stream slot.

Causality invariant: every template offset is <= 0, i.e. a parity sent
at slot t only involves source sub-symbols of slots t - reach .. t, where
``reach`` is the widest template reach over the components
(``Component`` rejects anything else).  Three shortcuts rest on it.  A
sub-symbol received at slot t cannot appear in any parity seen before
t, so it is known at its own slot: received sub-symbols are read in
place from the received stream, never stored, and decoder state is kept
only for erased sub-symbols of the current erasure cluster: an erased
slot more than ``reach`` slots after the last one starts a new cluster
and drops the old state.  No parity from that slot on reads an older
term, and a diagonal's entries span less than its component's reach, so
nothing held for the old cluster can change; a received slot that far
past the last erasure is skipped.  And a single burst
in an otherwise received stream decodes alike wherever it starts: the
templates are the same at every slot, and a term before slot 0 is a
known zero just as a received slot's sub-symbol is known, so a burst at
any start s >= 0 has the recovery times of the same burst at start 0,
shifted by s.  ``desco``'s ``sweep_max_delay`` and ``burst_loss_count``
decode the burst at start 0 in place of every start.

``encode_symbols`` evaluates the same templates column-wise over a
source array, so encoder and decoder share one parity definition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gf import GF, IncrementalSystem
from .sco import ScoCodec, Var


@dataclass(frozen=True)
class TraceEvent:
    """One recovered sub-symbol: which parity pinned it, and when.

    ``slot``, ``sub`` and ``time`` are on the stream clock, as in
    ``StreamLog.sub_times``.  ``row`` is the stream parity row (r*b0 + j
    for expanded parity j at sub-slot r, see ``Component``) and
    ``parity_slot`` its emission slot on the component's own clock, the
    expanded one when the expansion n > 1 (n*slot + r - shift).  Both are
    -1 when the value came out of a diagonal system by substitution.
    """

    slot: int
    sub: int
    time: int            # stream slot at which the value became known
    component: int       # index of the component whose parity was used
    row: int             # stream parity row within that component
    parity_slot: int     # emission slot on the component's own clock


@dataclass
class StreamLog:
    """Per-sub-symbol recovery times and deadline accounting for one decode.

    ``sub_times`` is a (horizon, n_subs) int array: ``sub_times[slot, sub]``
    is the stream slot at which the sub-symbol became known (its own slot
    when received) or -1 if it was never recovered.
    """

    deadline: int
    sub_times: np.ndarray
    trace: List[TraceEvent] = dc_field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.sub_times)

    @cached_property
    def slot_times(self) -> List[Optional[int]]:
        """Recovery time of every slot in the horizon: the latest time of
        its sub-symbols, None if any is missing.  Computed on first use;
        ``sub_times`` must not change afterwards."""
        times = self.sub_times
        latest = np.where(times.min(axis=1) < 0, -1, times.max(axis=1))
        return [None if t < 0 else t for t in latest.tolist()]

    def slot_time(self, slot: int) -> Optional[int]:
        """Slot recovery time (None if any sub-symbol is missing)."""
        return self.slot_times[slot] if 0 <= slot < self.horizon else None

    def slot_delay(self, slot: int) -> Optional[int]:
        t = self.slot_time(slot)
        return None if t is None else t - slot

    @property
    def misses(self) -> List[int]:
        deadline = self.deadline
        return [slot for slot, t in enumerate(self.slot_times)
                if t is None or t > slot + deadline]

    @property
    def fully_recovered(self) -> bool:
        return None not in self.slot_times


class Component:
    """A component codec's view of the combined parity stream.

    The component's parity contributing to combined slot t is the one it
    emitted at t - shift on its own clock, which at ``expansion`` n > 1
    is the pseudo-expanded clock of n expanded slots per stream slot.
    With t0 = codec.t and b0 = codec.b, stream slot t holds expanded
    slots n*t + r for r in 0..n-1: sub-slot r's sub-symbol k is stream
    sub r*t0 + k, and its parity j is stream parity row r*b0 + j.  An
    expanded term offset ds of that row lands at stream offset
    (r + ds) // n and stream sub ((r + ds) % n)*t0 + k; its diagonal
    codeword is n*t plus the row's codeword offset.  Term positions
    relative to t are fixed per row, so they are precomputed once.
    ``reach`` is how many stream slots before t the oldest term lies.  A
    term after its emission slot would break the decoder's causality
    invariant and raises ValueError.
    """

    def __init__(self, codec: ScoCodec, shift: int = 0, expansion: int = 1):
        self.codec = codec
        self.shift = shift
        self.expansion = n = expansion
        self.templates: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        for r in range(n):
            for j in range(codec.b):
                # sub-slot r's parity j was emitted at r - shift on the own
                # clock; term slots are expanded, relative to stream slot 0
                entries = []
                for (slot, sub), coeff in codec.parity_terms(r - shift, j).items():
                    if slot > r:
                        raise ValueError(
                            f"parity {j} at shift {shift} has a term {slot - r} "
                            "slots after its emission slot; templates must be "
                            "causal")
                    entries.append((slot // n, (slot % n) * codec.t + sub, coeff))
                self.templates.append((codec.diag_of_parity(r - shift, j),
                                       entries))
        self.reach = max((-ds for _, entries in self.templates
                          for ds, _, _ in entries), default=0)

    def terms(self, t: int, row: int) -> Dict[Var, int]:
        return {(t + ds, sub): c for ds, sub, c in self.templates[row][1]}


def source_array(rows: Sequence[Sequence[int]], width: int, field: GF) -> np.ndarray:
    """Source rows as an (n, width) int64 array of elements of ``field``.

    Raises ValueError on a row of another width or on an element outside
    [0, field.order), before any element is used as a table index.
    """
    if any(len(row) != width for row in rows):
        raise ValueError(f"expected {width} sub-symbols per slot")
    try:
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError as exc:
        raise ValueError(f"element out of range for {field}") from exc
    bad = (arr < 0) | (arr >= field.order)
    if bad.any():
        raise ValueError(f"element {int(arr[bad][0])} out of range for {field}")
    return arr


def encode_symbols(components: Sequence[Component], field: GF,
                   source: np.ndarray) -> np.ndarray:
    """Channel symbols for a checked (n_slots, n_subs) source array.

    Row t is source row t followed by the combined parities of slot t:
    parity j sums, over the components, each template-j term
    ``coeff * source[t + ds][sub]``, with time before slot 0 zero.  Each
    term is one gather over the zero-padded source column (one product
    row lookup unless coeff is 1), accumulated with XOR, the field's sum.
    """
    n_slots, n_subs = source.shape
    reach = max(comp.reach for comp in components)
    padded = np.zeros((reach + n_slots, n_subs), dtype=np.int64)
    padded[reach:] = source
    n_par = len(components[0].templates)
    out = np.empty((n_slots, n_subs + n_par), dtype=np.int64)
    out[:, :n_subs] = source
    for j in range(n_par):
        acc = np.zeros(n_slots, dtype=np.int64)
        for comp in components:
            for ds, sub, coeff in comp.templates[j][1]:
                col = padded[reach + ds:reach + ds + n_slots, sub]
                acc = acc ^ (col if coeff == 1 else field.mul_row(coeff)[col])
        out[:, n_subs + j] = acc
    return out


class _PendingParity:
    """One combined parity equation awaiting staged release.

    ``const`` is the received parity plus every known term.  Unknowns only
    shrink, so at most one component is ever released.
    """

    __slots__ = ("t", "j", "const", "unknowns", "released")

    def __init__(self, t: int, j: int, value: int, n_components: int):
        self.t = t
        self.j = j
        self.const = value
        self.unknowns: List[Dict[Var, int]] = [dict() for _ in range(n_components)]
        self.released = False


def staged_decode(components: Sequence[Component], field: GF, n_subs: int,
                  n_parities: int, received: Sequence[Optional[Sequence[int]]]):
    """Run the staged decoder over a stream with ``None`` marking erased slots.

    Returns (values, times, trace): values maps each recovered erased
    (slot, sub) to its field element (received sub-symbols stay in
    ``received``); times is the (horizon, n_subs) int array of recovery
    slots, a received row holding its own slot and -1 marking a
    sub-symbol never recovered (see ``StreamLog``); trace lists the
    parity attribution of each recovered erased sub-symbol.
    """
    horizon = len(received)
    ncomp = len(components)
    reach = max(comp.reach for comp in components)
    known: Dict[Var, int] = {}  # recovered erased sub-symbols only
    # row t holds t, filled in place: no horizon-long temporary
    times = np.arange(horizon * n_subs).reshape(horizon, n_subs)
    times //= n_subs
    trace: List[TraceEvent] = []
    systems: Dict[Tuple[int, int], IncrementalSystem] = {}
    sys_vars: Dict[Var, Set[Tuple[int, int]]] = {}
    watchers: Dict[Var, List[Tuple[_PendingParity, int]]] = {}  # var -> [(pp, comp)]

    queue: deque = deque()  # (var, value, attribution)
    ready: deque = deque()  # pending parities whose unknowns changed
    unresolved: Set[Var] = set()  # erased sub-symbols of this cluster
    last_erased = -reach - 1  # most recent erased slot (none yet)
    probes = [[(ds, sub) for comp in components
               for ds, sub, _ in comp.templates[j][1]]
              for j in range(n_parities)]

    def enqueue_known(var: Var, value: int, prov) -> None:
        if var in known:
            return
        known[var] = value
        queue.append((var, value, prov))

    def absorb(var: Var, value: int, now: int, prov) -> None:
        """Propagate one newly recovered sub-symbol through all bookkeeping."""
        unresolved.discard(var)
        times[var] = now
        ci, row, pslot = prov
        trace.append(TraceEvent(var[0], var[1], now, ci, row, pslot))
        for pp, ci in watchers.pop(var, []):
            if pp.released:
                continue  # its equation is already in a system
            coeff = pp.unknowns[ci].pop(var)
            pp.const = field.add(pp.const, field.mul(coeff, value))
            if not pp.unknowns[ci]:
                ready.append(pp)
        for skey in sys_vars.pop(var, set()):
            newly = systems[skey].substitute(var, value)
            for v2, val2 in newly.items():
                enqueue_known(v2, val2, (skey[0], -1, -1))

    def try_release(pp: _PendingParity) -> None:
        if pp.released:
            return
        live = [ci for ci in range(ncomp) if pp.unknowns[ci]]
        if len(live) != 1:
            return
        ci = live[0]
        pp.released = True
        comp = components[ci]
        skey = (ci, comp.expansion * pp.t + comp.templates[pp.j][0])
        sysm = systems.setdefault(skey, IncrementalSystem(field))
        eq = pp.unknowns[ci]  # absorb leaves a released parity alone
        for v in eq:
            sys_vars.setdefault(v, set()).add(skey)
        prov = (ci, pp.j,  # emission slot on the own clock, see TraceEvent
                comp.expansion * pp.t + pp.j // comp.codec.b - comp.shift)
        newly = sysm.add_equation(eq, pp.const)
        for v2, val2 in newly.items():
            enqueue_known(v2, val2, prov)

    def drain(now: int) -> None:
        while queue or ready:
            while queue:
                var, value, prov = queue.popleft()
                absorb(var, value, now, prov)
            while ready:
                try_release(ready.popleft())

    for t in range(horizon):
        slot = received[t]
        if slot is None:
            if t - last_erased > reach:
                # a new cluster: nothing held for the old one can change
                unresolved.clear()
                watchers.clear()
                systems.clear()
                sys_vars.clear()
            last_erased = t
            times[t] = -1
            unresolved.update((t, k) for k in range(n_subs))
            continue
        if len(slot) != n_subs + n_parities:
            raise ValueError(f"slot {t}: expected {n_subs + n_parities} symbols")
        if not unresolved or t - last_erased > reach:
            continue
        for j in range(n_parities):
            # fast path: a parity whose terms are all known adds nothing
            if not any((t + ds, sub) in unresolved for ds, sub in probes[j]):
                continue
            pp = _PendingParity(t, j, slot[n_subs + j], ncomp)
            for ci, comp in enumerate(components):
                unknowns = pp.unknowns[ci]
                for ds, sub, coeff in comp.templates[j][1]:
                    s = t + ds
                    if s < 0:
                        continue  # zero padding before the stream start
                    # causal templates: received slot s already passed its
                    # width check, and is read in place
                    sym = received[s]
                    value = known.get((s, sub)) if sym is None else sym[sub]
                    if value is None:
                        unknowns[(s, sub)] = coeff
                        watchers.setdefault((s, sub), []).append((pp, ci))
                    else:
                        pp.const = field.add(pp.const, field.mul(coeff, value))
            ready.append(pp)
        drain(t)

    return known, times, trace
