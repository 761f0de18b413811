"""Reference decoders that ``staged_decode`` is compared against.

``reference_decode`` is the staged decoder as one Python loop over the
slots of each erasure cluster, with element arithmetic.  It decodes the
clusters one by one in stream order, holding no state from one cluster
to the next, and returns what ``staged_decode`` does: (recovered, times,
trace).  A contradiction raises ``InconsistentSystemError`` whose
``slot`` is the stream slot at whose parities it showed.

``ml_decode_times`` is the elimination oracle: unrestricted incremental
Gaussian elimination over everything the receiver has seen, giving the
earliest slot at which each erased sub-symbol is pinned by *any* linear
decoder.

Both eliminate with ``ReferenceSystem``, the library's
``IncrementalSystem`` written plainly: each pass over the row is a pass
of its own, and every product goes through ``field.mul``.  So the
decoder comparisons do not rest on the elimination they check.
"""

from collections import deque

import numpy as np

from streamfec.decoder import TraceEvent
from streamfec.gf import InconsistentSystemError


class ReferenceSystem:
    """Online Gaussian elimination, as ``IncrementalSystem``: the same
    pivots, rows, ``solved`` and returned dicts, in the same order, and
    an ``InconsistentSystemError`` at the same equation."""

    def __init__(self, field):
        self.field = field
        self.solved = {}
        self._rows = {}  # pivot var -> (row dict var->coeff, const)

    def add_equation(self, terms, const):
        f, mul = self.field, self.field.mul
        row = dict(terms)
        c = const
        # fold in already-solved variables
        for v in list(row):
            if v in self.solved:
                c = c ^ mul(row.pop(v), self.solved[v])
            elif row[v] == 0:
                del row[v]
        # reduce against existing pivot rows
        for pv in list(row):
            if pv in self._rows:
                coef = row.pop(pv)
                prow, pc = self._rows[pv]
                for v2, c2 in prow.items():
                    nv = row.get(v2, 0) ^ mul(coef, c2)
                    if nv:
                        row[v2] = nv
                    else:
                        row.pop(v2, None)
                c = c ^ mul(coef, pc)
        if not row:  # 0 = c: c must be 0 in every column
            if np.any(c):
                raise InconsistentSystemError("contradictory equation")
            return {}
        pivot = next(iter(row))
        inv = f.inv(row.pop(pivot))
        row = {v: mul(inv, cv) for v, cv in row.items()}
        c = mul(inv, c)
        # eliminate the new pivot from older rows
        for opv, (orow, oc) in list(self._rows.items()):
            coef = orow.get(pivot)
            if coef:
                del orow[pivot]
                for v2, c2 in row.items():
                    nv = orow.get(v2, 0) ^ mul(coef, c2)
                    if nv:
                        orow[v2] = nv
                    else:
                        orow.pop(v2, None)
                self._rows[opv] = (orow, oc ^ mul(coef, c))
        self._rows[pivot] = (row, c)
        # harvest rows left with only their pivot; no other row holds it
        newly = {}
        for pv, (prow, pc) in list(self._rows.items()):
            if not prow:
                del self._rows[pv]
                self.solved[pv] = pc
                newly[pv] = pc
        return newly


class PendingParity:
    """One combined parity equation awaiting staged release."""

    def __init__(self, t, j, value, n_components):
        self.t = t
        self.j = j
        self.const = value
        self.unknowns = [dict() for _ in range(n_components)]
        self.released = False


def clusters(erased, reach):
    """(first, last) erased slot of each run of erased slots whose gaps
    hold at most ``reach`` received slots."""
    out = []
    for t in np.flatnonzero(erased).tolist():
        if out and t - out[-1][1] <= reach:
            out[-1][1] = t
        else:
            out.append([t, t])
    return out


def reference_decode(components, field, n_subs, n_parities, symbols, erased):
    horizon, width = len(symbols), n_subs + n_parities
    ncomp = len(components)
    reach = max(comp.reach for comp in components)
    known = {}
    times = np.repeat(np.arange(horizon), n_subs).reshape(horizon, n_subs)
    trace = []
    systems, sys_vars, watchers = {}, {}, {}
    queue, ready = deque(), deque()
    unresolved = set()
    probes = [[(ds, sub) for comp in components
               for ds, sub, _ in comp.templates[j][1]]
              for j in range(n_parities)]

    def enqueue_known(var, value, prov):
        if var not in known:
            known[var] = value
            queue.append((var, value, prov))

    def absorb(var, value, now, prov):
        unresolved.discard(var)
        times[var] = now
        trace.append(TraceEvent(var[0], var[1], now, *prov))
        for pp, ci in watchers.pop(var, []):
            if pp.released:
                continue
            coeff = pp.unknowns[ci].pop(var)
            pp.const ^= field.mul(coeff, value)
            if not pp.unknowns[ci]:
                ready.append(pp)
        for skey in sys_vars.pop(var, set()):
            for v2, val2 in systems[skey].add_equation({var: 1}, value).items():
                enqueue_known(v2, val2, (skey[0], -1, -1))

    def try_release(pp):
        live = [ci for ci in range(ncomp) if pp.unknowns[ci]]
        if pp.released or len(live) != 1:
            return
        ci = live[0]
        pp.released = True
        comp = components[ci]
        skey = (ci, comp.expansion * pp.t + comp.templates[pp.j][0])
        sysm = systems.setdefault(skey, ReferenceSystem(field))
        eq = pp.unknowns[ci]
        for v in eq:
            sys_vars.setdefault(v, set()).add(skey)
        prov = (ci, pp.j,
                comp.expansion * pp.t + pp.j // comp.codec.b - comp.shift)
        for v2, val2 in sysm.add_equation(eq, pp.const).items():
            enqueue_known(v2, val2, prov)

    def drain(now):
        while queue or ready:
            while queue:
                var, value, prov = queue.popleft()
                absorb(var, value, now, prov)
            while ready:
                try_release(ready.popleft())

    for first, last in clusters(erased, reach):
        base, end = first - reach, min(horizon, last + reach + 1)
        pad = max(0, -base)
        rows = [[0] * width] * pad + symbols[base + pad:end].tolist()
        gone = [False] * pad + erased[base + pad:end].tolist()
        for state in (unresolved, watchers, systems, sys_vars):
            state.clear()
        for t in range(first, end):
            i = t - base
            if gone[i]:
                times[t] = -1
                unresolved.update((t, k) for k in range(n_subs))
                continue
            if not unresolved:
                continue
            for j in range(n_parities):
                if not any((t + ds, sub) in unresolved for ds, sub in probes[j]):
                    continue
                pp = PendingParity(t, j, rows[i][n_subs + j], ncomp)
                for ci, comp in enumerate(components):
                    for ds, sub, coeff in comp.templates[j][1]:
                        r = i + ds
                        value = (known.get((t + ds, sub)) if gone[r]
                                 else rows[r][sub])
                        if value is None:
                            pp.unknowns[ci][(t + ds, sub)] = coeff
                            watchers.setdefault((t + ds, sub), []).append((pp, ci))
                        else:
                            pp.const ^= field.mul(coeff, value)
                ready.append(pp)
            try:
                drain(t)
            except InconsistentSystemError as exc:
                raise InconsistentSystemError(str(exc), slot=t) from exc

    recovered = np.where(erased[:, None], 0, symbols[:, :n_subs])
    for (slot, sub), value in known.items():
        recovered[slot, sub] = value
    return recovered, times, trace


def ml_decode_times(codec, erased):
    """Earliest per-sub-symbol determination times for a codec under the
    (horizon,) bool mask ``erased`` of its lost slots.

    ``codec`` is a ``CombinedCodec`` (single- or two-user); the times are
    laid out as its decode log's ``sub_times``, -1 marking never determined.
    Only the coefficient structure matters for determination times, so the
    elimination runs against an all-zero right-hand side.
    """
    n_subs = codec.subs_per_slot
    times = np.arange(len(erased))[:, None].repeat(n_subs, axis=1)
    times[erased] = -1
    unknown = set()
    system = ReferenceSystem(codec.field)
    for t, lost in enumerate(erased.tolist()):
        if lost:
            unknown.update((t, k) for k in range(n_subs))
            continue
        for j in range(codec.parities_per_slot):
            terms = {}
            for comp in codec.components:
                for ds, sub, coeff in comp.templates[j][1]:
                    var = (t + ds, sub)
                    if var in unknown:
                        prev = terms.get(var, 0)
                        cur = prev ^ coeff
                        if cur:
                            terms[var] = cur
                        else:
                            terms.pop(var, None)
            if not terms:
                continue
            # each variable is solved, and returned, once
            for var in system.add_equation(terms, 0):
                times[var] = t
    return times
