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

Causality invariant: every template offset is <= 0, i.e. a parity sent
at slot t only involves source sub-symbols of slots t - reach .. t, where
``reach`` is the widest template reach over the components
(``Component`` rejects anything else).  Three shortcuts rest on it.  A
sub-symbol received at slot t cannot appear in any parity seen before
t, so it is stored directly instead of being propagated.  An erased
sub-symbol older than t - reach appears in no later parity, so it is
dropped from the set of unresolved terms that the "all terms known"
parity test consults; once no erased sub-symbol is within reach, a slot's
parities are skipped without looking at their terms.  And since the
templates are also the same at every slot, a burst starting at stream
slot s >= ``CombinedCodec.reach_slots`` meets no zero padding from
before slot 0 and decodes exactly like the same burst at any other such
start, shifted; ``desco.sweep_max_delay`` and ``desco.burst_loss_count``
decode one such start in place of all of them.

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
    """One recovered sub-symbol: which parity pinned it, and when."""

    slot: int
    sub: int
    time: int            # stream slot at which the value became known
    component: int       # index of the component whose parity was used
    row: int             # parity row j within that component
    parity_slot: int     # parity emission slot on the component's own clock


@dataclass
class StreamLog:
    """Per-sub-symbol recovery times and deadline accounting for one decode."""

    horizon: int
    n_subs: int
    deadline: int
    sub_times: Dict[Var, Optional[int]]
    trace: List[TraceEvent] = dc_field(default_factory=list)

    @cached_property
    def slot_times(self) -> List[Optional[int]]:
        """Recovery time of every slot in the horizon: the latest time of
        its sub-symbols, None if any is missing.  Computed on first use;
        ``sub_times`` must not change afterwards."""
        get = self.sub_times.get
        subs = range(self.n_subs)
        out: List[Optional[int]] = []
        for slot in range(self.horizon):
            times = [get((slot, k)) for k in subs]
            out.append(None if None in times else max(times))
        return out

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

    The component's parity j contributing to combined slot t is the one
    it emitted at t - shift on its own clock.  Term positions relative to
    t are fixed per parity row, so they are precomputed once.  ``reach``
    is how many slots before t the oldest term lies.  A term after t
    would break the decoder's causality invariant and raises ValueError.
    """

    def __init__(self, codec: ScoCodec, shift: int = 0):
        self.codec = codec
        self.shift = shift
        self.templates: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        for j in range(codec.b):
            diag_off = codec.diag_of_parity(-shift, j)
            entries = []
            for (slot, sub), coeff in codec.parity_terms(-shift, j).items():
                if slot > 0:
                    raise ValueError(
                        f"parity {j} at shift {shift} has a term {slot} slots "
                        "after its emission slot; templates must be causal")
                entries.append((slot, sub, coeff))
            self.templates.append((diag_off, entries))
        self.reach = max((-ds for _, entries in self.templates
                          for ds, _, _ in entries), default=0)

    def terms(self, t: int, j: int) -> Tuple[int, Dict[Var, int]]:
        diag_off, entries = self.templates[j]
        return t + diag_off, {(t + ds, sub): c for ds, sub, c in entries}

    def own_slot(self, t: int) -> int:
        return t - self.shift


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
    """Bookkeeping for one combined parity equation awaiting staged release."""

    __slots__ = ("t", "j", "value", "unknowns", "consts", "codewords", "released")

    def __init__(self, t: int, j: int, value: int, n_components: int):
        self.t = t
        self.j = j
        self.value = value
        self.unknowns: List[Dict[Var, int]] = [dict() for _ in range(n_components)]
        self.consts: List[int] = [0] * n_components
        self.codewords: List[int] = [0] * n_components
        self.released: Set[int] = set()


def staged_decode(components: Sequence[Component], field: GF, n_subs: int,
                  n_parities: int, received: Sequence[Optional[Sequence[int]]]):
    """Run the staged decoder over a stream with ``None`` marking erased slots.

    Returns (values, times, trace): values maps (slot, sub) to the
    recovered field element where determined; times maps every in-horizon
    (slot, sub) to its recovery slot or None; trace lists the parity
    attribution of each recovered erased sub-symbol.
    """
    horizon = len(received)
    ncomp = len(components)
    reach = max(comp.reach for comp in components)
    known: Dict[Var, int] = {}
    times: Dict[Var, Optional[int]] = {}
    trace: List[TraceEvent] = []
    systems: Dict[Tuple[int, int], IncrementalSystem] = {}
    sys_vars: Dict[Var, Set[Tuple[int, int]]] = {}
    watchers: Dict[Var, List[Tuple[int, int]]] = {}  # var -> [(pending idx, comp)]
    pending: List[_PendingParity] = []

    queue: deque = deque()  # (var, value, attribution | None)
    ready: deque = deque()  # pending indices whose counts changed
    # erased sub-symbols not yet recovered and still within template reach
    unresolved: Set[Var] = set()
    erased_slots: deque = deque()  # erased slots with entries in unresolved
    probes = [[(ds, sub) for comp in components
               for ds, sub, _ in comp.templates[j][1]]
              for j in range(n_parities)]

    def enqueue_known(var: Var, value: int, prov) -> None:
        if var in known:
            return
        known[var] = value
        queue.append((var, value, prov))

    def absorb(var: Var, value: int, now: int, prov) -> None:
        """Propagate one newly known sub-symbol through all bookkeeping."""
        unresolved.discard(var)
        if var not in times or times[var] is None:
            times[var] = now
            if prov is not None:
                ci, row, pslot = prov
                trace.append(TraceEvent(var[0], var[1], now, ci, row, pslot))
        for idx, ci in watchers.pop(var, []):
            pp = pending[idx]
            coeff = pp.unknowns[ci].pop(var, None)
            if coeff is not None:
                pp.consts[ci] = field.add(pp.consts[ci], field.mul(coeff, value))
                if not pp.unknowns[ci]:
                    ready.append(idx)
        for skey in sys_vars.pop(var, set()):
            newly = systems[skey].substitute(var, value)
            for v2, val2 in newly.items():
                enqueue_known(v2, val2, (skey[0], -1, -1))

    def try_release(idx: int, now: int) -> None:
        pp = pending[idx]
        for ci in range(ncomp):
            if ci in pp.released or not pp.unknowns[ci]:
                continue
            if any(pp.unknowns[cj] for cj in range(ncomp) if cj != ci):
                continue
            pp.released.add(ci)
            rhs = pp.value
            for cj in range(ncomp):
                rhs = field.add(rhs, pp.consts[cj])
            skey = (ci, pp.codewords[ci])
            sysm = systems.setdefault(skey, IncrementalSystem(field))
            eq = dict(pp.unknowns[ci])
            for v in eq:
                sys_vars.setdefault(v, set()).add(skey)
            prov = (ci, pp.j, components[ci].own_slot(pp.t))
            newly = sysm.add_equation(eq, rhs)
            for v2, val2 in newly.items():
                enqueue_known(v2, val2, prov)

    def drain(now: int) -> None:
        while queue or ready:
            while queue:
                var, value, prov = queue.popleft()
                absorb(var, value, now, prov)
            while ready:
                try_release(ready.popleft(), now)

    for t in range(horizon):
        while erased_slots and erased_slots[0] < t - reach:
            old = erased_slots.popleft()
            for k in range(n_subs):
                unresolved.discard((old, k))
        slot = received[t]
        if slot is None:
            for k in range(n_subs):
                times[(t, k)] = None
                unresolved.add((t, k))
            erased_slots.append(t)
            drain(t)
            continue
        if len(slot) != n_subs + n_parities:
            raise ValueError(f"slot {t}: expected {n_subs + n_parities} symbols")
        # causal templates: no pending parity or system involves slot t yet
        for k in range(n_subs):
            var = (t, k)
            known[var] = slot[k]
            times[var] = t
        if not unresolved:
            continue
        for j in range(n_parities):
            # fast path: a parity whose terms are all known adds nothing
            if not any((t + ds, sub) in unresolved for ds, sub in probes[j]):
                continue
            pp = _PendingParity(t, j, slot[n_subs + j], ncomp)
            idx = len(pending)
            for ci, comp in enumerate(components):
                diag_off, entries = comp.templates[j]
                pp.codewords[ci] = t + diag_off
                unknowns = pp.unknowns[ci]
                const = 0
                for ds, sub, coeff in entries:
                    if t + ds < 0:
                        continue  # zero padding before the stream start
                    var = (t + ds, sub)
                    value = known.get(var)
                    if value is None:
                        unknowns[var] = coeff
                        watchers.setdefault(var, []).append((idx, ci))
                    else:
                        const = field.add(const, field.mul(coeff, value))
                pp.consts[ci] = const
            pending.append(pp)
            ready.append(idx)
        drain(t)

    # only received or once-unknown sub-symbols are keys: all in the horizon
    return known, times, trace
