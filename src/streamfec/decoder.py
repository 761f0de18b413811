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

``staged_decode`` takes its input as ``wire.check_stream`` checks it,
and the rows its mask erases are never read.

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

So does a cluster, whose shape is its erasure mask up to ``reach``
slots past its last erasure, clipped at the horizon.  What is known,
which parity enters which system when, and every coefficient follow
from the shape: received values only enter the constants.
``ShapeEngine`` runs the staged logic on a shape in its own
coordinates, its clock counting slots from a cluster's first, over its
window: its rows from ``reach`` slots before the first erasure, as two
flat lists, the source values row by row and the received parities.
A variable is an integer, its flat window index row * n_subs + sub; an
erased slot's entries hold None until they are recovered, then their
values, and ``divmod`` gives an event's slot and sub back.  Each
``Component`` compiles its templates once into such flat offsets,
ds * n_subs + sub, so a parity at row i reads the variable
i * n_subs + offset.  A contradiction leaves its system as it was, so
the run goes on, noting the slot of its earliest contradicting cluster
(``syndrome``).  ``staged_decode`` groups ``_HORIZON`` clusters at a
time by shape and runs the engine once per shape.  A shape with one
cluster whose window lies in the stream takes it as one slice of the
symbols, plain ints, and writes its events back one by one.  Any other
shape gathers its windows by one index, zeros before slot 0, each value
a vector at the field's dtype with a column per cluster, or a plain int
for one cluster, and places every cluster's times and values at its
first slot by one ``put`` each.  XOR adds; ``field.mul`` multiplies
vectors, and a product of plain ints is one lookup in the field's log
tables.  The trace adds a cluster's first slot to the shape's events as
it is walked (``Trace``).
The horizon bounds the columns, so working memory is flat in length.
Only erased slots have times to keep: a received slot's sub-symbols are
known at its own slot.  So the decode keeps the erased slots' times
alone, in slot order, a row per erased slot, and ``StreamLog`` derives
the rest.  ``desco``'s ``burst_decode_log`` runs one burst's shape on
zero windows, with no stream, for every user's outcome at every start.

``encode_symbols`` evaluates the same templates column-wise over a
source array, so encoder and decoder share one parity definition.  It
works at the field's dtype, the wire's element width (uint8 for
GF(2^m <= 8), else uint16): a term is one gather from a product row and
one in-place XOR, and the stream it returns is packed without a cast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .gf import GF, IncrementalSystem, InconsistentSystemError
from .sco import ScoCodec
from .wire import check_stream

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


class Trace:
    """The ``TraceEvent`` of each recovered erased sub-symbol, cluster by
    cluster in stream order, built as it is iterated.

    Every cluster of a shape decodes alike relative to its first slot
    f: slot and time are f past the shape's, a parity's emission slot
    expansion * f past it, and a substitution's -1 stays.  So each
    grouping horizon (``_HORIZON`` clusters) is kept as its clusters'
    first slots (int64), their shape ids (numbered in order of first
    appearance) and each shape's events relative to f = 0, as plain
    tuples of the ``TraceEvent`` fields.  The length is counted from the
    shape ids and each shape's event count, without building an event.
    A trace is read in stream order; ``list(trace)`` indexes it.
    """

    def __init__(self, horizons: List[Tuple[np.ndarray, np.ndarray,
                                            List[List[tuple]]]],
                 expansion: int):
        self._horizons = horizons
        self._expansion = expansion

    def __len__(self) -> int:
        return sum(int(np.array([len(ev) for ev in events])[ids].sum())
                   for _, ids, events in self._horizons)

    def __iter__(self) -> Iterator[TraceEvent]:
        n = self._expansion
        for firsts, ids, events in self._horizons:
            for f, k in zip(firsts.tolist(), ids.tolist()):
                for slot, sub, time, ci, row, pslot in events[k]:
                    yield TraceEvent(slot + f, sub, time + f, ci, row,
                                     pslot + n * f if row >= 0 else -1)


@dataclass
class StreamLog:
    """Per-sub-symbol recovery times of one decode, kept for the erased
    slots only.

    ``erased`` holds the erased slots in ascending order and
    ``erased_sub_times`` their (len(erased), n_subs) times:
    ``erased_sub_times[i, sub]`` is the stream slot at which sub-symbol
    ``sub`` of slot ``erased[i]`` became known, -1 if it never was.  A
    received sub-symbol is known at its own slot, so that is all a
    horizon-long decode keeps; every user reads them.  ``trace``
    attributes each recovered erased sub-symbol to the parity that
    pinned it: a ``Trace``, an iterable in stream order with a length,
    whose events are built as it is iterated.

    The dense forms, ``sub_times`` and ``slot_times``, are built on first
    use; none of the arrays may change afterwards.  Both rest on the
    decoder's causality invariant (see the module docstring): every
    sub-symbol of a received slot is known at its own slot, and no
    sub-symbol of an erased slot ever is, since the parities of its own
    slot are lost with it and no earlier parity reads it.
    """

    horizon: int
    erased: np.ndarray
    erased_sub_times: np.ndarray
    trace: Trace

    @cached_property
    def erased_slot_times(self) -> np.ndarray:
        """Recovery time of each erased slot: the latest time of its
        sub-symbols, -1 if any is missing."""
        rows = self.erased_sub_times
        return np.where((rows < 0).any(axis=1), -1, rows.max(axis=1))

    @cached_property
    def sub_times(self) -> np.ndarray:
        """The (horizon, n_subs) recovery times of every sub-symbol: a
        received slot's row holds its own slot."""
        times = np.empty((self.horizon, self.erased_sub_times.shape[1]),
                         dtype=self.erased_sub_times.dtype)
        times[:] = np.arange(self.horizon)[:, None]
        times[self.erased] = self.erased_sub_times
        return times

    @cached_property
    def slot_times(self) -> np.ndarray:
        """Recovery time of every slot in the horizon: its own slot when
        received, else ``erased_slot_times``."""
        latest = np.arange(self.horizon)
        latest[self.erased] = self.erased_slot_times
        return latest

    def misses(self, deadline: int) -> List[int]:
        """Slots not recovered within ``deadline`` slots of their own:
        erased slots only, as a received slot is known at its own."""
        latest = self.erased_slot_times
        late = (latest < 0) | (latest > self.erased + deadline)
        return self.erased[late].tolist()


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
    relative to t are fixed per row, so they are precomputed once, as
    ``templates`` and, for the decoder, as ``flat_terms``, each row's
    (flat offset, coeff) pairs.
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
        # the templates on the decoder's flat window (see staged_decode):
        # term (ds, sub) of a parity at window row i is variable
        # i * n_subs + ds * n_subs + sub
        n_subs = n * codec.t
        self.flat_terms = [tuple((ds * n_subs + sub, coeff)
                                 for ds, sub, coeff in entries)
                           for _, entries in self.templates]


def encode_symbols(components: Sequence[Component], field: GF,
                   source: np.ndarray) -> np.ndarray:
    """Channel symbols for a checked (n_slots, n_subs) source array, at
    the field's dtype (the wire's element width).

    Row t is source row t followed by the combined parities of slot t:
    parity j sums, over the components, each template-j term
    ``coeff * source[t + ds][sub]``, with time before slot 0 zero.  Each
    source column is kept contiguous, zero-padded in front; a term
    gathers the column's products from ``field.mul_row(coeff)`` (the
    column itself when coeff is 1) and XORs them, the field's sum, into
    the parity in place.
    """
    n_slots, n_subs = source.shape
    reach = max(comp.reach for comp in components)
    padded = np.zeros((n_subs, reach + n_slots), dtype=field.dtype)
    padded[:, reach:] = source.T
    n_par = len(components[0].templates)
    out = np.empty((n_slots, n_subs + n_par), dtype=field.dtype)
    out[:, :n_subs] = source
    acc, product = np.empty((2, n_slots), dtype=field.dtype)
    for j in range(n_par):
        acc[:] = 0
        for comp in components:
            for ds, sub, coeff in comp.templates[j][1]:
                col = padded[sub, reach + ds:reach + ds + n_slots]
                acc ^= col if coeff == 1 else field.mul_row(coeff).take(
                    col, out=product)
        out[:, n_subs + j] = acc
    return out


class _PendingParity:
    """One combined parity equation awaiting staged release.

    ``const`` is the received parity plus every known term, and
    ``unknowns[ci]`` component ci's unknown terms, flat variable ->
    coefficient.  Unknowns only shrink, so at most one component is ever
    released: the one left when ``live`` is 1.
    """

    __slots__ = ("t", "j", "const", "unknowns", "live", "released")

    def __init__(self, t: int, j: int, const: Value):
        self.t = t
        self.j = j
        self.const = const
        self.unknowns: List[Dict[int, int]] = []
        self.live = 0  # components with unknown terms
        self.released = False


_SCAN = 1024  # mask slots per nonzero() call: scan memory is flat in length
_HORIZON = 1024  # clusters grouped by shape at a time: flat memory too


def _clusters(erased: np.ndarray, reach: int
              ) -> Iterator[Tuple[int, int, bytes]]:
    """(first erased slot, erased slots before it, shape) of each erasure
    cluster, in stream order; the slice clips the shape's mask bytes at
    the horizon."""
    first = last = -reach - 1  # no erasure yet
    base = count = 0
    for lo in range(0, len(erased), _SCAN):
        for t in erased[lo:lo + _SCAN].nonzero()[0].tolist():
            t += lo
            if t - last > reach:
                if last >= 0:
                    yield first, base, erased[first:last + reach + 1].tobytes()
                first, base = t, count
            last = t
            count += 1
    if last >= 0:
        yield first, base, erased[first:last + reach + 1].tobytes()


class ShapeEngine:
    """The staged logic over one cluster shape (see the module docstring),
    given once the codec's tables: components, field, sub-symbols and
    parities per slot, widest reach, each parity row's term offsets, and
    the field's log table with its antilog table written twice, so a
    product of two nonzero elements is one lookup of the logs' sum."""

    def __init__(self, components: Sequence[Component], field: GF,
                 n_subs: int, n_parities: int):
        self.reach = max(comp.reach for comp in components)
        self.tables = (components, field, n_subs, n_parities, self.reach,
                       [tuple(off for comp in components
                              for off, _ in comp.flat_terms[j])
                        for j in range(n_parities)],
                       field._log, field._alog * 2)

    def run(self, key: bytes, src: list, par: list, firsts: np.ndarray
            ) -> Tuple[List[tuple], List[int]]:
        """Decode shape ``key``'s clusters, first slots ``firsts``, at once
        over their window lists ``src`` and ``par``, of which ``src`` ends
        up holding every recovered value.  Returns the ``TraceEvent``
        fields of each recovery in shape coordinates (time t is t slots
        past a cluster's first, window row t + reach) and the stream slot
        of each contradiction noted."""
        (components, field, n_subs, n_parities, reach, probes, logs,
         exps) = self.tables
        mul = field.mul
        vector = len(firsts) > 1
        nones = [None] * n_subs
        events: List[tuple] = []  # TraceEvent fields
        contradictions: List[int] = []
        unknown = 0  # erased sub-symbols not yet recovered
        systems: Dict[Tuple[int, int], IncrementalSystem] = {}
        sys_vars: Dict[int, Dict[int, IncrementalSystem]] = {}  # var -> ci -> system
        watchers: Dict[int, List[Tuple[_PendingParity, int]]] = {}  # var -> [(pp, ci)]
        queue: deque = deque()  # (var, value, attribution, producing system)
        ready: deque = deque()  # pending parities whose unknowns changed

        def solve(system, eq: Dict[int, int], const: Value, prov: tuple):
            """Add an equation to a system and queue what it newly solves;
            a contradiction adds nothing and notes its earliest slot."""
            try:
                newly = system.add_equation(eq, const)
            except InconsistentSystemError as exc:
                columns = np.flatnonzero(exc.syndrome)
                contradictions.append(int(firsts[columns].min()) + t)
                return
            for v, value in newly.items():
                if src[v] is None:
                    src[v] = value
                    queue.append((v, value, prov, system))

        for t, lost in enumerate(key):
            lo = (t + reach) * n_subs
            if lost:
                src[lo:lo + n_subs] = nones
                unknown += n_subs
                continue
            if not unknown:
                continue
            for j in range(n_parities):
                # fast path: a parity whose terms are all known adds nothing
                for off in probes[j]:
                    if src[lo + off] is None:
                        break
                else:
                    continue
                pp = _PendingParity(t, j, par[(t + reach) * n_parities + j])
                const = pp.const
                for ci, comp in enumerate(components):
                    unknowns: Dict[int, int] = {}
                    for off, coeff in comp.flat_terms[j]:
                        # causal templates: the variable is in the window
                        v = lo + off
                        value = src[v]
                        if value is None:
                            unknowns[v] = coeff
                            watchers.setdefault(v, []).append((pp, ci))
                        elif vector:
                            const = const ^ mul(coeff, value)
                        elif value:  # a zero element adds nothing
                            const ^= exps[logs[coeff] + logs[value]]
                    pp.unknowns.append(unknowns)
                    if unknowns:
                        pp.live += 1
                pp.const = const
                ready.append(pp)
            while queue or ready:
                while queue:
                    # a recovered value: substitute it wherever it is
                    # unknown, but in the system that solved it, where
                    # it would only cancel out; in any other system it
                    # is a consistency check
                    v, value, prov, source = queue.popleft()
                    unknown -= 1
                    slot, sub = divmod(v, n_subs)
                    events.append((slot - reach, sub, t) + prov)
                    for pp, ci in watchers.pop(v, ()):
                        if pp.released:
                            continue  # its equation is already in a system
                        unknowns = pp.unknowns[ci]
                        coeff = unknowns.pop(v)
                        if vector:
                            pp.const = pp.const ^ mul(coeff, value)
                        elif value:
                            pp.const ^= exps[logs[coeff] + logs[value]]
                        if not unknowns:
                            pp.live -= 1
                            ready.append(pp)
                    for ci, system in sys_vars.pop(v).items():
                        if system is not source:
                            solve(system, {v: 1}, value, (ci, -1, -1))
                while ready:
                    # a parity left with one component's unknowns
                    # enters that component's diagonal system
                    pp = ready.popleft()
                    if pp.released or pp.live != 1:
                        continue
                    pp.released = True
                    for ci, eq in enumerate(pp.unknowns):
                        if eq:
                            break
                    comp = components[ci]
                    skey = (ci, comp.expansion * pp.t
                            + comp.templates[pp.j][0])
                    system = systems.get(skey)
                    if system is None:
                        system = systems[skey] = IncrementalSystem(field)
                    for v in eq:
                        sys_vars.setdefault(v, {})[ci] = system
                    # attributed to parity j at its own-clock slot
                    solve(system, eq, pp.const, (ci, pp.j, comp.expansion
                          * pp.t + pp.j // comp.codec.b - comp.shift))
        return events, contradictions


def staged_decode(components: Sequence[Component], field: GF, n_subs: int,
                  n_parities: int, symbols: np.ndarray, erased: np.ndarray):
    """Run the staged decoder over a received stream.

    ``symbols`` is the (horizon, n_subs + n_parities) integer array of
    channel symbols and ``erased`` the (horizon,) bool mask of the slots
    lost on the channel, whose rows are never read; ``check_stream``
    refuses anything else.  Returns (recovered, times, trace): recovered
    is the (horizon, n_subs) source array at the field's dtype, 0 where a
    sub-symbol was never recovered; times is the (n_erased, n_subs) int
    array of the erased slots' recovery slots, in slot order, -1 marking
    a sub-symbol never recovered (a received sub-symbol is known at its
    own slot, see ``StreamLog``); trace is the parity attribution of each
    recovered erased sub-symbol, cluster by cluster in stream order, a
    ``Trace`` built as it is iterated.  Per grouping horizon of
    ``_HORIZON`` clusters, each shape's windows are gathered, run once
    through the ``ShapeEngine`` and placed (see the module docstring);
    then InconsistentSystemError names the horizon's earliest stream
    slot whose parities contradict the others.
    """
    check_stream(symbols, field, n_subs + n_parities, erased)
    engine = ShapeEngine(components, field, n_subs, n_parities)
    reach = engine.reach
    recovered = symbols[:, :n_subs].astype(field.dtype)
    recovered[erased.nonzero()[0]] = 0  # by index: faster than by mask
    times = np.full((np.count_nonzero(erased), n_subs), -1)
    horizons = []  # see Trace
    clusters = _clusters(erased, reach)
    while chunk := list(islice(clusters, _HORIZON)):
        # shape -> its clusters' indices in the chunk, in order of appearance
        members: Dict[bytes, List[int]] = {}
        for i, (_, _, key) in enumerate(chunk):
            members.setdefault(key, []).append(i)
        firsts = np.array([first for first, _, _ in chunk], dtype=np.int64)
        ids = np.empty(len(chunk), dtype=np.uint16)
        events: List[List[tuple]] = []
        contradictions: List[int] = []  # slots, in this grouping horizon
        for k, (key, which) in enumerate(members.items()):
            ids[which] = k
            at_firsts = firsts[which]
            first, base, _ = chunk[which[0]]
            whole = len(which) == 1 and first >= reach
            if whole:
                # one cluster, all its window in the stream: a slice
                rows = symbols[first - reach:first + len(key)]
                src = rows[:, :n_subs].ravel().tolist()
                par = rows[:, n_subs:].ravel().tolist()
            else:
                # gather the (row, symbol, column) window at the field's
                # dtype, zeros before slot 0: a vector (a view) per entry,
                # or an int
                at = np.arange(-reach, len(key))[:, None] + at_firsts
                rows = symbols.take(at, 0, mode="clip").astype(
                    field.dtype, copy=False)
                if at_firsts[0] < reach:
                    rows[at < 0] = 0
                rows = rows.transpose(0, 2, 1)
                cut = (list if len(which) > 1
                       else lambda e: e.ravel().tolist())
                src = cut(rows[:, :n_subs].reshape(-1, len(which)))
                par = cut(rows[:, n_subs:].reshape(-1, len(which)))
                del at
            del rows
            shape_events, noted = engine.run(key, src, par, at_firsts)
            # (event, cluster at slot f): f + slot, sub, known at f +
            # time, its value read back from the window; the slot's row
            # in times is the cluster's erased slots before it plus the
            # shape's up to it
            rank = list(accumulate(key))
            if whole:
                for slot, sub, time, *_ in shape_events:
                    recovered[first + slot, sub] = src[(slot + reach)
                                                       * n_subs + sub]
                    times[base + rank[slot] - 1, sub] = first + time
            elif shape_events:
                flat = [e[0] * n_subs + e[1] for e in shape_events]
                recovered.put(np.add.outer(flat, at_firsts * n_subs),
                              [src[v + reach * n_subs] for v in flat])
                bases = np.array([chunk[i][1] for i in which])
                times.put(np.add.outer([(rank[e[0]] - 1) * n_subs + e[1]
                                        for e in shape_events],
                                       bases * n_subs),
                          np.add.outer([e[2] for e in shape_events],
                                       at_firsts))
            contradictions += noted
            events.append(shape_events)
        if contradictions:
            slot = min(contradictions)
            raise InconsistentSystemError(
                f"the parities of stream slot {slot} contradict the "
                "earlier ones", slot=slot)
        horizons.append((firsts, ids, events))
    return recovered, times, Trace(horizons, components[0].expansion)
