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
sub-symbol.  Nothing here depends on the receiver: one decode serves
every user, each counting misses against its own deadline.

Everything runs on the stream clock: a rational-ratio codec's expanded
clock is folded into its ``Component`` templates, so a received slot is
one stream slot and every time is a stream slot.

Causality invariant: every template offset is <= 0, i.e. a parity sent
at slot t only involves source sub-symbols of slots t - reach .. t, where
``reach`` is the widest template reach over the components
(``Component`` rejects anything else).  Three shortcuts rest on it.  A
sub-symbol received at slot t cannot appear in any parity seen before
t, so it is known at its own slot.  Decoder state is kept only
for erased sub-symbols of one erasure cluster, a run of erased slots
with gaps of at most ``reach`` received slots: no parity after a longer
gap reads a term before it, and a diagonal's entries span less than its
component's reach, so nothing held for one cluster can change later.
The decoder visits each cluster up to ``reach`` slots past its last
erasure and skips every other slot.  And a single burst in an otherwise
received stream decodes alike wherever it starts: the templates are the
same at every slot, and a term before slot 0 is a known zero just as a
received slot's sub-symbol is known, so a burst at any start s >= 0 has
the recovery times of the same burst at start 0, shifted by s.
``desco``'s ``sweep_max_delay`` and ``burst_loss_count`` decode the
burst at start 0 in place of every start, once for every user.

So does a cluster, whose shape is its erasure mask up to ``reach``
slots past its last erasure, clipped at the horizon.  What is known,
which parity enters which system when, and every coefficient follow
from the shape: received values only enter the constants.  One run of
the staged logic decodes every cluster of a shape in a batch of
``_BATCH`` clusters at once, each value an int64 vector with one column
per cluster (XOR adds, ``field.mul`` multiplies; plain ints for a
single cluster), and the others get the first's times and trace,
shifted by their start.  The shape's window, its rows from ``reach``
slots before the first erasure, is the one record of what is known: an
erased slot's row holds None for each sub-symbol until it is recovered,
then its value.  Batches keep decoder memory flat in length.

``encode_symbols`` evaluates the same templates column-wise over a
source array, so encoder and decoder share one parity definition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple, Union

import numpy as np

from .gf import GF, IncrementalSystem, InconsistentSystemError
from .sco import ScoCodec, Var

Value = Union[int, np.ndarray]  # an element, or one per cluster of a shape


class TraceEvent(NamedTuple):
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
    """Per-sub-symbol recovery times of one decode.

    ``sub_times`` is a (horizon, n_subs) int array: ``sub_times[slot, sub]``
    is the stream slot at which the sub-symbol became known (its own slot
    when received) or -1 if it was never recovered; every user reads them.
    """

    sub_times: np.ndarray
    trace: List[TraceEvent] = dc_field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.sub_times)

    @cached_property
    def slot_times(self) -> np.ndarray:
        """Recovery time of every slot in the horizon: the latest time of
        its sub-symbols, -1 if any is missing.  Computed on first use;
        ``sub_times`` must not change afterwards."""
        times = self.sub_times
        return np.where(times.min(axis=1) < 0, -1, times.max(axis=1))

    def misses(self, deadline: int) -> List[int]:
        """Slots not recovered within ``deadline`` slots of their own."""
        latest = self.slot_times
        late = latest > np.arange(len(latest)) + deadline
        return (late | (latest < 0)).nonzero()[0].tolist()


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


def encode_symbols(components: Sequence[Component], field: GF,
                   source: np.ndarray) -> np.ndarray:
    """Channel symbols for a checked (n_slots, n_subs) source array.

    Row t is source row t followed by the combined parities of slot t:
    parity j sums, over the components, each template-j term
    ``coeff * source[t + ds][sub]``, with time before slot 0 zero.  Each
    term is one ``field.mul`` of the zero-padded source column,
    accumulated with XOR, the field's sum.
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
                acc = acc ^ field.mul(coeff, col)
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


_SCAN = 1024  # mask slots per nonzero() call: scan memory is flat in length
_BATCH = 64  # clusters grouped by shape at a time: batch memory is flat too


def _clusters(erased: np.ndarray, reach: int) -> Iterator[Tuple[int, bytes]]:
    """(first erased slot, shape) of each erasure cluster, in stream order;
    the slice clips the shape's mask bytes at the horizon."""
    first = last = -reach - 1  # no erasure yet
    for lo in range(0, len(erased), _SCAN):
        for t in erased[lo:lo + _SCAN].nonzero()[0].tolist():
            if lo + t - last > reach:
                if last >= 0:
                    yield first, erased[first:last + reach + 1].tobytes()
                first = lo + t
            last = lo + t
    if last >= 0:
        yield first, erased[first:last + reach + 1].tobytes()


def staged_decode(components: Sequence[Component], field: GF, n_subs: int,
                  n_parities: int, symbols: np.ndarray, erased: np.ndarray):
    """Run the staged decoder over a received stream.

    ``symbols`` is the (horizon, n_subs + n_parities) integer array of
    channel symbols and ``erased`` the (horizon,) bool mask of the slots
    lost on the channel, whose rows are never read; ValueError names the
    dtype and shape of any other mask.  Returns (recovered, times,
    trace): recovered is the (horizon, n_subs) source array, 0 where a
    sub-symbol was never recovered; times is the (horizon, n_subs) int
    array of recovery slots, a received row holding its own slot and -1
    marking a sub-symbol never recovered (see ``StreamLog``); trace lists
    the parity attribution of each recovered erased sub-symbol, cluster
    by cluster in stream order.  InconsistentSystemError names the
    stream slot whose parities contradict the others.
    """
    horizon, width = len(symbols), n_subs + n_parities
    if (symbols.shape[1:] != (width,) or np.shape(erased) != (horizon,)
            or getattr(erased, "dtype", None) != bool):
        raise ValueError(
            f"expected {width} symbols per slot and a ({horizon},) bool "
            f"erasure mask, got symbols of shape {symbols.shape} and a mask "
            f"of dtype {getattr(erased, 'dtype', type(erased).__name__)} "
            f"and shape {np.shape(erased)}")
    ncomp = len(components)
    reach = max(comp.reach for comp in components)
    recovered = np.where(erased[:, None], 0, symbols[:, :n_subs])
    # row t holds t, filled in place: no horizon-long temporary
    times = np.arange(horizon * n_subs).reshape(horizon, n_subs)
    times //= n_subs
    trace: List[TraceEvent] = []
    events: List[TraceEvent] = []  # of one shape, in its first cluster's slots
    window: List[list] = []  # of one shape, see the module docstring
    base = 0  # stream slot of window row 0
    unknown = 0  # erased sub-symbols not yet recovered
    systems: Dict[Tuple[int, int], IncrementalSystem] = {}
    sys_vars: Dict[Var, Set[Tuple[int, int]]] = {}
    watchers: Dict[Var, List[Tuple[_PendingParity, int]]] = {}  # var -> [(pp, comp)]
    queue: deque = deque()  # (var, value, attribution)
    ready: deque = deque()  # pending parities whose unknowns changed
    probes = [[(ds, sub) for comp in components
               for ds, sub, _ in comp.templates[j][1]]
              for j in range(n_parities)]
    shift = 0  # each cluster's start minus the first's

    def enqueue(var: Var, value: Value, prov) -> None:
        nonlocal unknown
        row = window[var[0] - base]
        if row[var[1]] is None:
            row[var[1]] = value
            unknown -= 1
            queue.append((var, value, prov))

    def absorb(var: Var, value: Value, now: int, prov) -> None:
        """Propagate one newly recovered sub-symbol through all bookkeeping."""
        slots = var[0] + shift  # the sub-symbol in every cluster of the shape
        times[slots, var[1]] = now + shift
        recovered[slots, var[1]] = value
        ci, row, pslot = prov
        events.append(TraceEvent(var[0], var[1], now, ci, row, pslot))
        for pp, ci in watchers.pop(var, []):
            if pp.released:
                continue  # its equation is already in a system
            coeff = pp.unknowns[ci].pop(var)
            pp.const = pp.const ^ field.mul(coeff, value)
            if not pp.unknowns[ci]:
                ready.append(pp)
        for skey in sys_vars.pop(var, set()):
            newly = systems[skey].add_equation({var: 1}, value)
            for v2, val2 in newly.items():
                enqueue(v2, val2, (skey[0], -1, -1))

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
        sysm = systems.get(skey)
        if sysm is None:
            sysm = systems[skey] = IncrementalSystem(field)
        eq = pp.unknowns[ci]  # absorb leaves a released parity alone
        for v in eq:
            sys_vars.setdefault(v, set()).add(skey)
        prov = (ci, pp.j,  # emission slot on the own clock, see TraceEvent
                comp.expansion * pp.t + pp.j // comp.codec.b - comp.shift)
        newly = sysm.add_equation(eq, pp.const)
        for v2, val2 in newly.items():
            enqueue(v2, val2, prov)

    def drain(now: int) -> None:
        while queue or ready:
            while queue:
                var, value, prov = queue.popleft()
                absorb(var, value, now, prov)
            while ready:
                try_release(ready.popleft())

    def decode_shape(key: bytes, firsts: List[int]) -> List[TraceEvent]:
        """Decode every cluster of one shape at once, one column each, in
        the coordinates of the first; returns the first's trace."""
        nonlocal window, base, unknown, shift, events
        first = firsts[0]
        base, end = first - reach, first + len(key)
        vector = len(firsts) > 1
        if vector:
            # (row, symbol, column) int64 window, zeros before slot 0
            at = np.add.outer(np.arange(base, end), firsts) - first
            rows = symbols[np.maximum(at, 0)].transpose(0, 2, 1)
            window = [list(row) for row in
                      np.where(at[:, None, :] < 0, 0, rows).astype(np.int64)]
            shift = np.array(firsts) - first
        else:
            pad = max(0, -base)
            window = [[0] * width] * pad + symbols[base + pad:end].tolist()
            shift = 0
        events, unknown = [], 0
        for state in (watchers, systems, sys_vars):
            state.clear()  # nothing held for another shape applies here
        for t in range(first, end):
            i = t - base
            if key[t - first]:
                times[t + shift] = -1
                window[i] = [None] * n_subs
                unknown += n_subs
                continue
            if not unknown:
                continue
            for j in range(n_parities):
                # fast path: a parity whose terms are all known adds nothing
                for ds, sub in probes[j]:
                    if window[i + ds][sub] is None:
                        break
                else:
                    continue
                pp = _PendingParity(t, j, window[i][n_subs + j], ncomp)
                for ci, comp in enumerate(components):
                    unknowns = pp.unknowns[ci]
                    for ds, sub, coeff in comp.templates[j][1]:
                        # causal templates: row i + ds is in the window
                        value = window[i + ds][sub]
                        if value is None:
                            unknowns[(t + ds, sub)] = coeff
                            watchers.setdefault((t + ds, sub), []).append((pp, ci))
                        elif vector or value:  # a zero element adds nothing
                            pp.const = pp.const ^ field.mul(coeff, value)
                ready.append(pp)
            try:
                drain(t)
            except InconsistentSystemError as exc:
                slot = t + firsts[exc.column] - first
                raise InconsistentSystemError(
                    f"the parities of stream slot {slot} contradict the "
                    "earlier ones", exc.column, slot) from exc
        window = []  # freed before the caller copies the trace
        return events

    clusters = _clusters(erased, reach)
    while block := list(islice(clusters, _BATCH)):
        shapes: Dict[bytes, List[int]] = {}
        for first, key in block:
            shapes.setdefault(key, []).append(first)
        decoded = {key: decode_shape(key, firsts)
                   for key, firsts in shapes.items()}
        for first, key in block:
            d = first - shapes[key][0]
            trace.extend(decoded[key] if d == 0 else (
                TraceEvent(slot + d, sub, time + d, ci, row,
                           pslot + components[0].expansion * d if row >= 0
                           else -1)
                for slot, sub, time, ci, row, pslot in decoded[key]))
    return recovered, times, trace
