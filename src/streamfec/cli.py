"""Command-line harness: verify, simulate, encode, decode, bounds.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error, 4 inconsistent channel stream (the received symbols contradict
each other, so no codeword of the codec produced them).  A ``--config``
file supplies key=value defaults (keys named like the long flags, with
underscores); explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import channel, oracle, wire
from .desco import (CombinedCodec, DeScoCodec, DeScoParams, burst_loss_count,
                    descriptor, ia_sco_build, optimal_delay, parse_descriptor,
                    rate_upper_bound, sweep_max_delay)
from .gf import InconsistentSystemError
from .sco import capacity

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INCONSISTENT = 4
LOG_CHUNK = 4096  # decode log rows per write: the log's memory is flat


class UsageError(Exception):
    pass


def _read_config(path: str) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            k, v = line.split("=", 1)
            cfg[k.strip().replace("-", "_")] = v.strip()
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="streamfec")
    p.add_argument("--config", help="key=value defaults file")
    sub = p.add_subparsers(dest="command")

    def add_codec_flags(sp):
        sp.add_argument("--b1", type=int)
        sp.add_argument("--t1", type=int)
        sp.add_argument("--alpha-num", type=int, dest="alpha_num")
        sp.add_argument("--alpha-den", type=int, dest="alpha_den", default=1)

    sp = sub.add_parser(
        "verify", help="burst delay sweep over every start in a window",
        description="Worst recovery delay and misses of one burst (b1 for "
        "user 1, b2 for user 2) over every start in 0..window-burst.  Exact "
        "from one decode per user: the codes are causal and time-invariant "
        "and the stream before slot 0 counts as known zeros, so a burst at "
        "any start decodes like the one at start 0, shifted.")
    add_codec_flags(sp)
    sp.add_argument("--window", type=int,
                    help="default 10*(t1+b1); at least b2")

    sp = sub.add_parser(
        "simulate", help="segmented-burst loss experiment (approximate)",
        description="Each segment's losses are counted as those of one "
        "isolated burst.  A burst may end on a segment's last slot and the "
        "next start on the following segment's first slot; such back-to-back "
        "bursts interact, so at any --segment-len the curve is approximate.")
    add_codec_flags(sp)
    sp.add_argument("--bmax-list", dest="bmax_list")
    sp.add_argument("--segment-len", type=int, dest="segment_len", default=2000)
    sp.add_argument("--segments", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--schemes", default="desco,ia,rlc")
    sp.add_argument("--users", default="1,2")
    sp.add_argument("--out", default="-")

    sp = sub.add_parser("encode", help="encode a packed source stream")
    sp.add_argument("--descriptor", required=False)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--out")

    sp = sub.add_parser("decode", help="decode a packed channel stream")
    sp.add_argument("--descriptor", required=False)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--pattern")
    sp.add_argument("--user", type=int, default=2)
    sp.add_argument("--out")
    sp.add_argument("--log")

    sp = sub.add_parser("bounds", help="rate bound and delay formulas")
    sp.add_argument("--b1", type=int)
    sp.add_argument("--t1", type=int)
    sp.add_argument("--b2", type=int)
    sp.add_argument("--t2", type=int)
    p.subcommands = dict(sub.choices)
    return p


def _flags(parser: argparse.ArgumentParser) -> Dict[str, str]:
    """dest -> long flag of each option of the parser and its subcommands."""
    return {action.dest: opt for p in (parser, *parser.subcommands.values())
            for action in p._actions
            for opt in action.option_strings if opt.startswith("--")}


def _require(args, *dests):
    missing = [d for d in dests if getattr(args, d, None) is None]
    if missing:
        flags = _flags(_build_parser())
        raise UsageError("missing required option(s): "
                         + ", ".join(flags[d] for d in missing))


def _int_list(flag: str, text) -> List[int]:
    """A comma-separated list flag's ints; a bad entry names the flag."""
    try:
        return [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag}: {text}") from exc


def cmd_verify(args, out) -> int:
    _require(args, "b1", "t1", "alpha_num")
    codec = DeScoCodec(DeScoParams(args.b1, args.t1, args.alpha_num,
                                   args.alpha_den))
    p = codec.params
    window = 10 * (p.t1 + p.b1) if args.window is None else args.window
    if window < p.b2:
        # a shorter window holds no start of the user-2 burst
        raise UsageError(f"--window must be at least b2 = {p.b2}: {window}")
    u1, m1 = sweep_max_delay(codec, p.b1, 1, window)
    u2, m2 = sweep_max_delay(codec, p.b2, 2, window)
    ok = (u1 == p.t1 and u2 == p.user2_deadline and m1 == 0 and m2 == 0)
    verdict = "PASS" if ok else "FAIL"
    print(f"codec (b1={p.b1}, t1={p.t1}, alpha={p.a}/{p.b}) "
          f"rate {p.rate}", file=out)
    print(f"user-1 max delay {u1} (target {p.t1}), misses {m1}", file=out)
    print(f"user-2 max delay {u2} (target {p.user2_deadline}), misses {m2}",
          file=out)
    print(verdict, file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def simulate_records(args) -> List[Dict[str, object]]:
    """Loss records per (b_max, scheme, user) over seeded segment bursts.

    Losses per segment are ``burst_loss_count`` of one isolated burst of
    the drawn length, every user's from one decode per (scheme, length);
    ``channel.burst_length_counts`` gives the lengths for every b_max,
    evaluated in batch and equal to one ``channel.draw_segment_burst``
    per segment and b_max.  Rows follow ``--bmax-list`` in its order, a
    repeated value repeating its rows.  ``channel.draw_segment_burst``
    can end a burst on a segment's last slot and start the next on the
    following segment's first slot, so two bursts can arrive back to
    back and interact at any ``segment_len``: the counts approximate a
    full decode of the pattern.
    """
    _require(args, "b1", "t1", "alpha_num", "bmax_list")
    params = DeScoParams(args.b1, args.t1, args.alpha_num, args.alpha_den)
    bmax_list = _int_list("--bmax-list", args.bmax_list)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    users = _int_list("--users", args.users)
    for flag, values in (("--bmax-list", bmax_list), ("--schemes", schemes),
                         ("--users", users)):
        if not values:
            raise UsageError(f"{flag} is empty")
    for s in schemes:
        if s not in ("desco", "ia", "rlc"):
            raise UsageError(f"unknown scheme {s!r}")
    for u in users:
        if u not in (1, 2):
            raise UsageError(f"unknown user {u}")
    if any(b < 0 for b in bmax_list):
        raise UsageError(f"--bmax-list values must be >= 0: {args.bmax_list}")
    if any(b >= args.segment_len for b in bmax_list):
        raise UsageError("bmax values must be smaller than segment-len")
    if args.segments < 1:
        raise UsageError("segments must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0: {args.seed}")

    codecs: Dict[str, CombinedCodec] = {}
    if "desco" in schemes:
        codecs["desco"] = DeScoCodec(params)
    if "ia" in schemes:
        if params.b != 1:
            raise UsageError("ia scheme requires an integer alpha")
        codecs["ia"] = ia_sco_build(params.b1, params.t1, params.a)
    loss_cache: Dict[tuple, Sequence[int]] = {}  # user u's at entry u - 1

    def losses_for(scheme: str, length: int) -> Sequence[int]:
        key = (scheme, length)
        if key not in loss_cache:
            if scheme == "rlc":
                loss_cache[key] = [
                    oracle.rlc_burst_losses(params.rate, length, d)
                    for d in (params.t1, params.user2_deadline)]
            else:
                loss_cache[key] = burst_loss_count(codecs[scheme], length)
        return loss_cache[key]

    # burst lengths per segment are scheme-independent for fairness
    length_counts = channel.burst_length_counts(args.seed, args.segments,
                                                bmax_list)
    records: List[Dict[str, object]] = []
    for b_max in bmax_list:
        counts = length_counts[b_max]
        total = args.segments * args.segment_len
        for scheme in schemes:
            for user in users:
                # a zero-length burst loses nothing
                lost = sum(counts[length] * losses_for(scheme, length)[user - 1]
                           for length in range(1, b_max + 1))
                records.append({
                    "b_max": b_max, "scheme": scheme, "user": user,
                    "loss_probability": lost / total,
                    "symbols_total": total, "symbols_lost": lost,
                    "seed": args.seed,
                })
    return records


def write_csv(records: Sequence[Dict[str, object]], out) -> None:
    fields = ["b_max", "scheme", "user", "loss_probability",
              "symbols_total", "symbols_lost", "seed"]
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        rec = dict(rec)
        rec["loss_probability"] = repr(float(rec["loss_probability"]))
        writer.writerow(rec)


def cmd_simulate(args, out) -> int:
    records = simulate_records(args)
    if args.out == "-":
        write_csv(records, out)
    else:
        with open(args.out, "w", newline="") as fh:
            write_csv(records, fh)
    return EXIT_OK


def _load_codec(args) -> DeScoCodec:
    _require(args, "descriptor")
    with open(args.descriptor) as fh:
        return parse_descriptor(fh.read())


def cmd_encode(args, out) -> int:
    codec = _load_codec(args)
    _require(args, "infile", "out")
    with open(args.infile, "rb") as fh:
        data = fh.read()
    source = wire.unpack_stream(data, codec.field, codec.subs_per_slot)
    stream = codec.encode_stream(source)
    with open(args.out, "wb") as fh:
        fh.write(wire.pack_stream(stream, codec.field))
    print(f"encoded {len(stream)} slots", file=out)
    return EXIT_OK


def cmd_decode(args, out) -> int:
    codec = _load_codec(args)
    _require(args, "infile", "out")
    with open(args.infile, "rb") as fh:
        symbols = wire.unpack_stream(fh.read(), codec.field, codec.symbol_width)
    erased = np.zeros(len(symbols), dtype=bool)
    if args.pattern:
        with open(args.pattern) as fh:
            pattern = channel.parse_pattern(fh.read(), len(symbols))
        erased = channel.apply(pattern, symbols)
    deadline = codec.deadline(args.user)
    recovered, log = codec.decode(symbols, erased)
    with open(args.out, "wb") as fh:
        fh.write(wire.pack_stream(recovered, codec.field))
    misses = log.misses(deadline)
    if args.log:
        latest = log.slot_times
        miss = np.zeros(len(latest), dtype=bool)
        miss[misses] = True
        with open(args.log, "w", newline="") as fh:
            fh.write("slot,recovery_slot,delay,miss\n")
            for lo in range(0, len(latest), LOG_CHUNK):
                times = latest[lo:lo + LOG_CHUNK]
                slots = np.arange(lo, lo + len(times))
                table = np.stack([slots, times, times - slots,
                                  miss[lo:lo + LOG_CHUNK]], axis=1).astype(object)
                table[times < 0, 1:3] = ""  # no recovery slot or delay
                fh.write(("%s,%s,%s,%s\n" * len(table))
                         % tuple(table.ravel().tolist()))
    print(f"decoded {log.horizon} slots, {len(misses)} misses", file=out)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    _require(args, "b1", "t1", "b2", "t2")
    b1, t1, b2, t2 = args.b1, args.t1, args.b2, args.t2
    for flag, value, least in (("--b1", b1, 1), ("--t1", t1, 0),
                               ("--t2", t2, 0)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}: {value}")
    if b2 <= b1:
        raise UsageError(f"need b2 > b1, got b2 = {b2}, b1 = {b1}")
    alpha = Fraction(b2, b1)
    t2_star = optimal_delay(b1, t1, alpha)
    bound = rate_upper_bound(b1, b2, t2, t1)
    target = Fraction(t1, t1 + b1)
    feasible = t2 >= t2_star
    print(f"rate_upper_bound(b1={b1}, b2={b2}, t2={t2}) = {bound}", file=out)
    print(f"optimal weak-receiver delay = {t2_star}", file=out)
    print(f"capacity(b1={b1}, t1={t1}) = {capacity(b1, t1)}", file=out)
    print(f"capacity(b2={b2}, t2={t2}) = {capacity(b2, t2)}", file=out)
    print(f"rate {target} at t2={t2}: "
          f"{'feasible' if feasible else 'infeasible'}", file=out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # pre-scan for --config so its values become defaults
        if "--config" in argv:
            at = argv.index("--config") + 1
            if at == len(argv):
                raise UsageError("--config needs a path")
            # keys name long flags; another key is taken as a dest (infile)
            dest = {f[2:].replace("-", "_"): d
                    for d, f in _flags(parser).items()}
            cfg = {dest.get(k, k): v for k, v in _read_config(argv[at]).items()}
            parser.set_defaults(**cfg)
            for sp in parser.subcommands.values():
                sp.set_defaults(**cfg)  # subparser defaults win otherwise
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        if not args.command:
            parser.print_usage(out)
            return EXIT_USAGE
        handler = {
            "verify": cmd_verify,
            "simulate": cmd_simulate,
            "encode": cmd_encode,
            "decode": cmd_decode,
            "bounds": cmd_bounds,
        }[args.command]
        return handler(args, out)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InconsistentSystemError as exc:
        print(f"error: inconsistent channel stream: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
