"""The staged decoder as one Python loop over the slots of each erasure
cluster, with element arithmetic: the reference ``staged_decode`` is
compared against.

It decodes the clusters one by one in stream order, holding no state
from one cluster to the next, and returns what ``staged_decode`` does:
(recovered, times, trace).  A contradiction raises
``InconsistentSystemError`` whose ``slot`` is the stream slot at whose
parities it showed.
"""

from collections import deque

import numpy as np

from streamfec.decoder import TraceEvent
from streamfec.gf import IncrementalSystem, InconsistentSystemError


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
        sysm = systems.setdefault(skey, IncrementalSystem(field))
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
