"""Command-line harness: verify, simulate, encode, decode, bounds.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error, 4 inconsistent channel stream (the received symbols contradict
each other, so no codeword of the codec produced them).  A ``--config``
file, named before the command, supplies key=value defaults (keys named
like the long flags, with underscores, or like their dests); explicit
flags override it, a key that names no option of the command is ignored,
and it is read only after argparse has accepted the command line.
Config, descriptor and pattern files are read as UTF-8; a file that is
not is a usage error naming its flag and path.
"""

from __future__ import annotations

import argparse
import csv
import sys
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import channel, oracle, wire
from .desco import (CombinedCodec, DeScoCodec, DeScoParams, burst_outcomes,
                    ia_sco_build, optimal_delay, parse_descriptor,
                    rate_upper_bound)
from .gf import InconsistentSystemError
from .sco import capacity

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INCONSISTENT = 4
# decode log rows per _log_rows call and write: flat memory.  A chunk's
# received rows are cut from one template per digit count and only its
# erased rows are formatted; a larger chunk is faster but raises the peak
# RSS of a long decode
LOG_CHUNK = 4096


class UsageError(Exception):
    pass


def _read_text(flag: str, path: str) -> str:
    """The UTF-8 text of the file a flag names; text that is not UTF-8
    is a usage error naming the flag and the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{flag} {path} is not UTF-8 text: {exc}") from exc


def _read_config(path: str) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    text = _read_text("--config", path)
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        k, v = line.split("=", 1)
        cfg[k.strip().replace("-", "_")] = v.strip()
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every command's parser as a subparser
    (``subcommands``, by name).  ``_parse`` builds it unless the first
    argument names a command."""
    p = argparse.ArgumentParser(prog="streamfec")
    p.add_argument("--config", help="key=value defaults file")
    sub = p.add_subparsers(dest="command")
    p.subcommands = {name: build(sub.add_parser)
                     for name, (build, _) in _PARSERS.items()}
    return p


def _alone(name: str, **kwargs) -> argparse.ArgumentParser:
    """A command's parser built on its own, as ``add_parser`` of the
    top-level parser's subparsers builds it."""
    kwargs.pop("help", None)  # it lists the command in the top-level help
    return argparse.ArgumentParser(prog=f"streamfec {name}", **kwargs)


def _codec_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--b1", type=int)
    sp.add_argument("--t1", type=int)
    sp.add_argument("--alpha-num", type=int, dest="alpha_num")
    sp.add_argument("--alpha-den", type=int, dest="alpha_den", default=1)


def _flags(parser: argparse.ArgumentParser) -> Dict[str, str]:
    """dest -> long flag of each option of the parser."""
    return {action.dest: opt for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


def _require(args, *dests):
    missing = [d for d in dests if getattr(args, d, None) is None]
    if missing:
        flags = _flags(_PARSERS[args.command][0](_alone))
        raise UsageError("missing required option(s): "
                         + ", ".join(flags[d] for d in missing))


def _int_list(flag: str, text) -> List[int]:
    """A comma-separated list flag's ints; a bad entry names the flag."""
    try:
        return [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag}: {text}") from exc


def _verify_parser(make) -> argparse.ArgumentParser:
    sp = make(
        "verify", help="delay check of one burst per user",
        description="Worst recovery delay and misses of one burst (b1 for "
        "user 1, b2 for user 2).  Exact from one run of each burst's "
        "erasure shape at start 0: the codes are causal and time-invariant, "
        "so a burst at any start decodes like that one, shifted.")
    _codec_flags(sp)
    return sp


def cmd_verify(args, out) -> int:
    _require(args, "b1", "t1", "alpha_num")
    codec = DeScoCodec(DeScoParams(args.b1, args.t1, args.alpha_num,
                                   args.alpha_den))
    p = codec.params
    outcomes = burst_outcomes(codec, [p.b1, p.b2])
    u1, (m1, _) = outcomes[p.b1]
    u2, (_, m2) = outcomes[p.b2]
    t2 = codec.deadline(2)
    ok = (u1 == p.t1 and u2 == t2 and m1 == 0 and m2 == 0)
    verdict = "PASS" if ok else "FAIL"
    print(f"codec (b1={p.b1}, t1={p.t1}, alpha={p.a}/{p.b}) "
          f"rate {p.rate}", file=out)
    print(f"user-1 max delay {u1} (target {p.t1}), misses {m1}", file=out)
    print(f"user-2 max delay {u2} (target {t2}), misses {m2}", file=out)
    print(verdict, file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def _simulate_parser(make) -> argparse.ArgumentParser:
    sp = make(
        "simulate", help="segmented-burst loss experiment (approximate)",
        description="Each segment's losses are counted as those of one "
        "isolated burst.  A burst may end on a segment's last slot and the "
        "next start on the following segment's first slot; such back-to-back "
        "bursts interact, so at any --segment-len the curve is approximate.")
    _codec_flags(sp)
    sp.add_argument("--bmax-list", dest="bmax_list")
    sp.add_argument("--segment-len", type=int, dest="segment_len", default=2000)
    sp.add_argument("--segments", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--schemes", default="desco,ia,rlc")
    sp.add_argument("--users", default="1,2")
    sp.add_argument("--out", default="-")
    return sp


def simulate_records(args) -> List[Dict[str, object]]:
    """Loss records per (b_max, scheme, user) over seeded segment bursts.

    Losses per segment are those of one isolated burst of the drawn
    length: ``burst_outcomes``, which ``verify`` reads too, gives every
    user's misses from one shape run per scheme and drawn length.
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
    # burst lengths per segment are scheme-independent for fairness
    length_counts = channel.burst_length_counts(args.seed, args.segments,
                                                bmax_list)
    # the lengths some segment drew; a zero-length burst loses nothing
    drawn = sorted({length for counts in length_counts.values()
                    for length, count in enumerate(counts)
                    if length and count})
    # user u's losses at entry u - 1, per scheme and length
    losses: Dict[str, Dict[int, Sequence[int]]] = {
        scheme: {length: misses for length, (_, misses)
                 in burst_outcomes(codec, drawn).items()}
        for scheme, codec in codecs.items()}
    if "rlc" in schemes:
        deadlines = (params.t1, params.user2_deadline)
        losses["rlc"] = {
            length: [oracle.rlc_burst_losses(params.rate, length, d)
                     for d in deadlines]
            for length in drawn}
    records: List[Dict[str, object]] = []
    for b_max in bmax_list:
        counts = length_counts[b_max]
        total = args.segments * args.segment_len
        for scheme in schemes:
            for user in users:
                lost = sum(counts[length] * losses[scheme][length][user - 1]
                           for length in drawn if length <= b_max)
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
    return parse_descriptor(_read_text("--descriptor", args.descriptor))


def _encode_parser(make) -> argparse.ArgumentParser:
    sp = make("encode", help="encode a packed source stream")
    sp.add_argument("--descriptor", required=False)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--out")
    return sp


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


def _received_rows(lo: int, hi: int, width: int) -> bytes:
    """The decode log rows ``s,s,0,0`` of slots lo..hi-1, all of
    ``width`` digits, as ASCII.  Each block of 100 slots from a multiple
    of 100 on copies one template: the fixed-width row with both slot
    fields' last two digits set, 100 times.  Only the higher digits, one
    per block, are added per block, and the rows of lo..hi-1 are cut
    from the blocks'."""
    size = 2 * width + 6
    row = (b"0" * width + b",") * 2 + b"0,0\n"
    template = np.frombuffer(bytearray(row * 100),
                             dtype=np.uint8).reshape(100, size)
    low = np.arange(100, dtype=np.uint8)
    for col in range(width - 1, max(width - 3, -1), -1):
        template[:, col] += low % 10
        template[:, col + width + 1] = template[:, col]
        low //= 10
    first = lo // 100
    rows = np.empty(((hi - 1) // 100 + 1 - first, 100, size), dtype=np.uint8)
    rows[:] = template
    high = np.arange(first, first + len(rows))
    for col in range(width - 3, -1, -1):
        rows[:, :, col] += (high % 10).astype(np.uint8)[:, None]
        rows[:, :, col + width + 1] = rows[:, :, col]
        high //= 10
    return rows.reshape(-1, size)[lo - 100 * first:hi - 100 * first].tobytes()


def _log_rows(lo: int, hi: int, erased: List[int], latest: List[int],
              late: set) -> bytes:
    """The decode log rows ``slot,recovery_slot,delay,miss`` of slots
    lo..hi-1 as ASCII: ``erased`` lists the erased slots among them in
    ascending order, ``latest`` their recovery slots, -1 if never, and
    ``late`` holds the slots that miss.  Every other slot is received and
    known at its own slot, so its row reads ``s,s,0,0``: the rows of each
    run of slots with one digit count come from one template row
    (``_received_rows``).  Only the erased rows are formatted, an
    unrecovered slot's times empty, and spliced in for theirs."""
    out = []
    i = 0
    while lo < hi:
        width = len(str(lo))
        top = min(hi, 10 ** width)  # slots lo..top-1 have width digits
        received = _received_rows(lo, top, width)
        size = 2 * width + 6
        at = lo  # the next slot to write
        j = bisect_left(erased, top, i)
        for slot, time in zip(erased[i:j], latest[i:j]):
            if slot > at:
                out.append(received[(at - lo) * size:(slot - lo) * size])
            out.append(b"%d,%d,%d,%d\n" % (slot, time, time - slot,
                                            slot in late)
                       if time >= 0 else b"%d,,,1\n" % slot)
            at = slot + 1
        out.append(received[(at - lo) * size:])
        lo, i = top, j
    return b"".join(out)


def _decode_parser(make) -> argparse.ArgumentParser:
    sp = make("decode", help="decode a packed channel stream")
    sp.add_argument("--descriptor", required=False)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--pattern")
    sp.add_argument("--user", type=int, default=2)
    sp.add_argument("--out")
    sp.add_argument("--log")
    return sp


def cmd_decode(args, out) -> int:
    codec = _load_codec(args)
    _require(args, "infile", "out")
    with open(args.infile, "rb") as fh:
        symbols = wire.unpack_stream(fh.read(), codec.field, codec.symbol_width)
    erased = np.zeros(len(symbols), dtype=bool)
    if args.pattern:
        pattern = channel.parse_pattern(_read_text("--pattern", args.pattern),
                                        len(symbols))
        erased = channel.apply(pattern, symbols)
    deadline = codec.deadline(args.user)
    recovered, log = codec.decode(symbols, erased)
    with open(args.out, "wb") as fh:
        fh.write(wire.pack_stream(recovered, codec.field))
    misses = log.misses(deadline)
    if args.log:
        late = set(misses)
        with open(args.log, "wb") as fh:
            fh.write(b"slot,recovery_slot,delay,miss\n")
            i = 0
            for lo in range(0, log.horizon, LOG_CHUNK):
                hi = min(lo + LOG_CHUNK, log.horizon)
                j = i + int(np.count_nonzero(erased[lo:hi]))
                fh.write(_log_rows(lo, hi, log.erased[i:j].tolist(),
                                   log.erased_slot_times[i:j].tolist(), late))
                i = j
    print(f"decoded {log.horizon} slots, {len(misses)} misses", file=out)
    return EXIT_OK


def _bounds_parser(make) -> argparse.ArgumentParser:
    sp = make("bounds", help="rate bound and delay formulas")
    sp.add_argument("--b1", type=int)
    sp.add_argument("--t1", type=int)
    sp.add_argument("--b2", type=int)
    sp.add_argument("--t2", type=int)
    return sp


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


# each command's subparser and handler, in the order help lists them
_PARSERS = {"verify": (_verify_parser, cmd_verify),
            "simulate": (_simulate_parser, cmd_simulate),
            "encode": (_encode_parser, cmd_encode),
            "decode": (_decode_parser, cmd_decode),
            "bounds": (_bounds_parser, cmd_bounds)}


def _set_config(parser: argparse.ArgumentParser, cfg: Dict[str, str]) -> None:
    """The config's values as defaults of the parser's options; keys name
    an option by long flag or by dest."""
    dests = {}
    for dest, flag in _flags(parser).items():
        dests[dest] = dests[flag[2:].replace("-", "_")] = dest
    parser.set_defaults(**{dests[k]: v for k, v in cfg.items() if k in dests})


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments as the top-level parser reads them, with the
    config's values as defaults of the command's options.

    A first argument that names a command leaves no room for a top-level
    option, so that command's parser, built on its own (``_alone``),
    parses the rest; the top-level parser reports what it leaves over,
    under its usage.  Anything else is parsed by the top-level parser,
    so argparse handles --config, help and usage errors before the
    config is read; with a config and a command, the command's parser
    takes the config's values and the arguments are parsed again."""
    if argv and argv[0] in _PARSERS:
        args, extras = _PARSERS[argv[0]][0](_alone).parse_known_args(argv[1:])
        if extras:
            _build_parser().error("unrecognized arguments: " + " ".join(extras))
        args.command, args.config = argv[0], None
        return args
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        cfg = _read_config(args.config)
        if args.command is not None:
            _set_config(parser.subcommands[args.command], cfg)
            args = parser.parse_args(argv)
    return args


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        if not args.command:
            _build_parser().print_usage(out)
            return EXIT_USAGE
        return _PARSERS[args.command][1](args, out)
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
