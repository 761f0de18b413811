import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamfec import cli, desco, wire
from streamfec.desco import DeScoCodec, DeScoParams, descriptor
from streamfec.gf import GF, InconsistentSystemError

from reference_decoder import reference_decode


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------
# verify
# ---------------------------------------------------------

def test_verify_passes_for_valid_codec():
    code, text = run(["verify", "--b1", "1", "--t1", "2",
                      "--alpha-num", "2", "--window", "25"])
    assert code == cli.EXIT_OK
    assert "PASS" in text
    assert "user-1 max delay 2" in text
    assert "user-2 max delay 5" in text


def test_verify_rational_alpha():
    code, text = run(["verify", "--b1", "2", "--t1", "5", "--alpha-num", "3",
                      "--alpha-den", "2", "--window", "30"])
    assert code == cli.EXIT_OK and "PASS" in text


def test_verify_missing_flags_is_usage_error():
    code, _ = run(["verify", "--b1", "1"])
    assert code == cli.EXIT_USAGE


def test_invalid_params_is_usage_error():
    code, _ = run(["verify", "--b1", "3", "--t1", "2", "--alpha-num", "2"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("window", ["0", "-5", "1"])
def test_verify_window_below_b2_is_usage_error(window, capsys):
    # b2 = 2: a shorter window holds no user-2 burst start
    code, text = run(["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2",
                      "--window", window])
    assert code == cli.EXIT_USAGE and text == ""
    assert "at least b2 = 2" in capsys.readouterr().err


def test_verify_window_of_b2_is_accepted():
    code, text = run(["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2",
                      "--window", "2"])
    assert code == cli.EXIT_OK and "PASS" in text


@pytest.mark.parametrize("argv", [
    ["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2"],
    ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
     "--bmax-list", "1", "--segments", "3", "--segment-len", "10"]])
def test_alpha_den_zero_is_usage_error(argv, capsys):
    code, text = run(argv + ["--alpha-den", "0"])
    assert code == cli.EXIT_USAGE and text == ""
    assert "need a > b >= 1" in capsys.readouterr().err


def test_no_command_is_usage_error():
    code, _ = run([])
    assert code == cli.EXIT_USAGE


def full_parser_main(argv):
    """Exit code of ``main`` parsing ``argv`` with every command's
    subparser built, printing what it prints, up to reading the config
    file."""
    parser = cli._build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_USAGE if exc.code else cli.EXIT_OK
    if args.config is not None:
        try:
            open(args.config).close()
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return cli.EXIT_IO
    assert args.command is None
    parser.print_usage()
    return cli.EXIT_USAGE


def test_one_command_parser_prints_what_the_full_parser_does(capsys,
                                                              monkeypatch,
                                                              tmp_path):
    """``main`` parses a command line that starts with a command with
    that command's parser alone; help, an unknown command, no command,
    bad options, arguments the command's parser leaves over, with a
    config file or without, a missing config file, and a --config value
    that argparse refuses, or takes for a path (a command's name among
    them), print the same text on the same stream with the same exit
    code as the full parser."""
    monkeypatch.chdir(tmp_path)  # no file named like an option
    (tmp_path / "c.cfg").write_text("b1=1\nt1=2\n")
    every = "{verify,simulate,encode,decode,bounds}"
    usage, ok, io_error = cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_IO
    cases = [(["-h"], ok, "out", "usage: streamfec [-h] [--config CONFIG]"),
             ([], usage, "out", every),
             (["frobnicate"], usage, "err", "invalid choice: 'frobnicate'"),
             (["--bogus"], usage, "err", "unrecognized arguments: --bogus"),
             (["verify", "--bogus"], usage, "err", every),
             (["verify", "--b1", "1", "--bogus", "x"], usage, "err",
              "streamfec: error: unrecognized arguments: --bogus x"),
             # reported under the top-level parser's usage
             (["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2",
               "--bogus"], usage, "err",
              "usage: streamfec [-h] [--config CONFIG]"),
             (["--config", "c.cfg", "verify", "--bogus"], usage, "err",
              "streamfec: error: unrecognized arguments: --bogus"),
             (["--config", "c.cfg", "verify", "-h"], ok, "out",
              "usage: streamfec verify [-h]"),
             # usage errors and help come before the config is read
             (["--config", "missing.cfg", "verify", "-h"], ok, "out",
              "usage: streamfec verify [-h]"),
             (["--config", "missing.cfg", "verify", "--bogus"], usage, "err",
              "streamfec: error: unrecognized arguments: --bogus"),
             (["--config", "missing.cfg", "frobnicate"], usage, "err",
              "invalid choice: 'frobnicate'"),
             (["--config"], usage, "err",
              "argument --config: expected one argument"),
             (["--config", "verify", "verify"], io_error, "err",
              "No such file or directory: 'verify'"),
             (["decode", "--user"], usage, "err",
              "streamfec decode: error: argument --user: expected one argument"),
             (["bounds", "--b1", "x"], usage, "err", "invalid int value: 'x'"),
             (["--config", "-h"], usage, "err",
              "argument --config: expected one argument"),
             (["--config", "--bogus", "verify"], usage, "err",
              "argument --config: expected one argument"),
             (["--config", "--=x", "verify"], usage, "err",
              "ambiguous option: --=x"),
             # argparse takes these for paths
             (["--config", "-5", "verify"], io_error, "err",
              "No such file or directory: '-5'"),
             (["--config=-h"], io_error, "err",
              "No such file or directory: '-h'")]
    cases += [(["--config", value, "verify"], usage, "err",
               "argument --config: expected one argument")
              for value in ("-hx", "--help", "--c", "--con=x", "--")]
    cases += [(["--config", value, "verify"], io_error, "err",
               f"No such file or directory: '{value}'")
              for value in ("-.5", "-", "-x y", "")]
    cases += [([command, "-h"], ok, "out", f"usage: streamfec {command} [-h]")
              for command in cli._PARSERS]
    for argv, exit_code, stream, text in cases:
        code = cli.main(argv)
        got = capsys.readouterr()
        want_code = full_parser_main(argv)
        want = capsys.readouterr()
        assert (code, got.out, got.err) == (want_code, want.out, want.err), argv
        assert code == exit_code, argv
        assert text in (got.out if stream == "out" else got.err), argv
        assert not (got.err if stream == "out" else got.out), argv


# ---------------------------------------------------------
# simulate
# ---------------------------------------------------------

SIM = ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
       "--bmax-list", "0,2,4", "--segment-len", "50", "--segments", "40",
       "--seed", "9"]


def sim_bmax(bmax_list):
    """SIM with its --bmax-list value replaced."""
    at = SIM.index("--bmax-list") + 1
    return SIM[:at] + [bmax_list] + SIM[at + 1:]


def test_simulate_csv_schema_and_determinism(tmp_path):
    code1, text1 = run(SIM)
    code2, text2 = run(SIM)
    assert code1 == code2 == cli.EXIT_OK
    assert text1 == text2
    rows = list(csv.DictReader(io.StringIO(text1)))
    assert set(rows[0]) == {"b_max", "scheme", "user", "loss_probability",
                            "symbols_total", "symbols_lost", "seed"}
    # 3 bmax values x 3 schemes x 2 users
    assert len(rows) == 18
    for row in rows:
        assert row["scheme"] in ("desco", "ia", "rlc")
        assert int(row["symbols_lost"]) <= int(row["symbols_total"])
        want = int(row["symbols_lost"]) / int(row["symbols_total"])
        assert float(row["loss_probability"]) == want


def test_simulate_to_file_matches_stdout(tmp_path):
    path = tmp_path / "out.csv"
    _, text = run(SIM)
    code, _ = run(SIM + ["--out", str(path)])
    assert code == cli.EXIT_OK
    assert path.read_text() == text


def test_simulate_zero_bmax_is_lossless():
    code, text = run(sim_bmax("0"))
    assert code == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 6
    for row in rows:
        assert row["symbols_lost"] == "0"


def test_simulate_scheme_and_user_filters():
    _, text = run(SIM + ["--schemes", "rlc", "--users", "2"])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert all(r["scheme"] == "rlc" and r["user"] == "2" for r in rows)


def test_simulate_rejects_bad_scheme():
    code, _ = run(SIM + ["--schemes", "fountain"])
    assert code == cli.EXIT_USAGE


def test_simulate_rejects_bmax_ge_segment_len(capsys):
    code, _ = run(sim_bmax("50"))
    assert code == cli.EXIT_USAGE
    assert "smaller than segment-len" in capsys.readouterr().err


def test_simulate_bmax_list_order_and_repeats():
    def rows_for(bmax_list):
        _, text = run(sim_bmax(bmax_list))
        return list(csv.DictReader(io.StringIO(text)))

    rows = rows_for("4,0,4")
    assert [r["b_max"] for r in rows] == ["4"] * 6 + ["0"] * 6 + ["4"] * 6
    alone = {b: rows_for(b) for b in ("0", "4")}
    assert rows == alone["4"] + alone["0"] + alone["4"]


def test_simulate_rejects_negative_bmax(capsys):
    code, _ = run(sim_bmax("2,-1"))
    assert code == cli.EXIT_USAGE
    assert "--bmax-list" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--bmax-list", ""),
                                         ("--schemes", ""), ("--users", ",")])
def test_simulate_empty_list_is_usage_error(flag, value, capsys):
    # an empty list used to write a CSV with only a header and exit 0
    argv = sim_bmax(value) if flag == "--bmax-list" else SIM + [flag, value]
    code, text = run(argv)
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == f"error: {flag} is empty\n"


@pytest.mark.parametrize("argv, message", [
    (SIM + ["--users", "3"], "unknown user 3"),
    (SIM + ["--segments", "0"], "segments must be >= 1"),
    (SIM + ["--schemes", "ia", "--b1", "2", "--t1", "5", "--alpha-num", "3",
             "--alpha-den", "2"],
     "ia scheme requires an integer alpha"),
    # its counts list would have over 2**32 entries
    (["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
      "--bmax-list", "4294967296", "--segment-len", "4294967297",
      "--segments", "1"], "b_max must be < 2**32, got 4294967296"),
])
def test_simulate_refusals_are_usage_errors(argv, message, capsys):
    code, text = run(argv)
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value", [("--bmax-list", "1,x"),
                                         ("--users", "x"), ("--users", "1.5")])
def test_simulate_non_integer_list_is_usage_error(flag, value, capsys):
    # --users x used to end in "invalid literal for int()", naming no flag
    argv = sim_bmax(value) if flag == "--bmax-list" else SIM + [flag, value]
    code, text = run(argv)
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == f"error: bad {flag}: {value}\n"


# the benchmark's loss-curve run
LOSS_CURVE = ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
              "--bmax-list", "0,1,2,3,4,5,6,7,8", "--segment-len", "100",
              "--segments", "10000", "--seed", "7",
              "--schemes", "desco,ia,rlc"]


def test_simulate_loss_curve_matches_bench_golden():
    """The benchmark's loss-curve run reproduces its golden CSV."""
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" \
        / "loss_curve_seed7.csv"
    code, text = run(LOSS_CURVE)
    assert code == cli.EXIT_OK
    assert text == golden.read_text()


def count_burst_decodes(monkeypatch):
    """Record each ``desco.staged_decode`` call, and each
    ``desco.burst_decode_log`` call's codec deadlines and length."""
    decodes, bursts = [], []
    staged_decode, burst_decode_log = desco.staged_decode, desco.burst_decode_log

    def counting_decode(*args):
        decodes.append(args)
        return staged_decode(*args)

    def counting_burst(codec, length):
        bursts.append((codec.deadlines, length))
        return burst_decode_log(codec, length)

    monkeypatch.setattr(desco, "staged_decode", counting_decode)
    monkeypatch.setattr(desco, "burst_decode_log", counting_burst)
    return decodes, bursts


def test_simulate_decodes_each_burst_length_once(monkeypatch):
    """The loss-curve run decodes no stream: it runs one shape per
    distinct burst length and scheme, lengths 1..8 for desco and ia
    (one stream decode per length and user made it 32)."""
    decodes, bursts = count_burst_decodes(monkeypatch)
    code, _ = run(LOSS_CURVE)
    assert code == cli.EXIT_OK
    assert decodes == []
    lengths = list(range(1, 9))
    assert [length for _, length in bursts] == lengths + lengths, bursts


def test_verify_and_simulate_share_one_burst_decode(monkeypatch):
    """Both commands read their isolated bursts from
    ``desco.burst_decode_log``, once per distinct length and codec, and
    neither decodes a stream: a verify command runs its b1 and b2."""
    decodes, bursts = count_burst_decodes(monkeypatch)
    expect = []
    for b1, t1, a, b in [(3, 8, 3, 1), (4, 10, 5, 2), (2, 3, 3, 2)]:
        code, text = run(["verify", "--b1", str(b1), "--t1", str(t1),
                          "--alpha-num", str(a), "--alpha-den", str(b)])
        assert code == cli.EXIT_OK and text.endswith("PASS\n"), text
        p = DeScoParams(b1, t1, a, b)
        expect += [((t1, p.user2_deadline), n) for n in (p.b1, p.b2)]
    assert [n for _, n in expect] == [3, 9, 4, 10, 2, 3]
    assert bursts == expect
    bursts.clear()
    code, _ = run(LOSS_CURVE)
    assert code == cli.EXIT_OK
    # desco (deadlines 2 and 5), then ia (2 and 6)
    assert bursts == [((2, 5), n) for n in range(1, 9)] \
        + [((2, 6), n) for n in range(1, 9)]
    assert decodes == []


def test_simulate_builds_no_seed_sequence(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    code, _ = run(sim_bmax("0,1,2,3,4,5,6,7,8"))
    assert code == cli.EXIT_OK
    # the batched draws build no generator: none of this run's draws rejects
    assert built == []


def test_simulate_rejects_negative_seed(capsys):
    at = SIM.index("--seed") + 1
    code, _ = run(SIM[:at] + ["-1"] + SIM[at + 1:])
    assert code == cli.EXIT_USAGE
    assert "--seed must be >= 0: -1" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("b1 = 1\nt1 = 2\nalpha-num = 2\nwindow = 25\n")
    code, text = run(["--config", str(cfg), "verify"])
    assert code == cli.EXIT_OK and "PASS" in text
    # explicit flag overrides the config value
    code, text = run(["--config", str(cfg), "verify", "--t1", "3"])
    assert "t1=3" in text


def config_run(tmp_path, command, text, flag="--config", joined=False):
    """Run ``command`` with ``text`` as its config file, named by
    ``flag PATH`` or, if ``joined``, by ``flag=PATH``."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    flags = [f"{flag}={cfg}"] if joined else [flag, str(cfg)]
    return run(flags + [command])


def test_config_values_equal_explicit_flags(tmp_path):
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    stream = codec.encode_stream(np.array([[v % codec.field.order, 1, 2, 3, 4]
                                           for v in range(40)]))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(stream, codec.field))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("6:3\n20:2\n")
    explicit = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                    "--pattern", str(pattern), "--user", "1",
                    "--out", str(tmp_path / "a.bin"),
                    "--log", str(tmp_path / "a.csv")])
    bounds = ["bounds", "--b1", "2", "--t1", "5", "--b2", "4", "--t2", "12"]
    # --config PATH, --config=PATH and an abbreviation, which argparse takes
    for form in (("--config", False), ("--config", True), ("--conf", False)):
        # argparse converts config defaults with each option's type
        assert config_run(tmp_path, "simulate", "b1=1\nt1=2\nalpha-num=2\n"
                          "bmax-list=0,2,4\nsegment-len=50\nsegments=40\n"
                          "seed=9\n", *form) == run(SIM)
        assert config_run(tmp_path, "bounds", "b1=2\nt1=5\nb2=4\nt2=12\n",
                          *form) == run(bounds)
        for f in ("b.bin", "b.csv"):
            (tmp_path / f).unlink(missing_ok=True)
        from_config = config_run(
            tmp_path, "decode", f"descriptor={desc}\ninfile={enc}\n"
            f"pattern={pattern}\nuser=1\nout={tmp_path / 'b.bin'}\n"
            f"log={tmp_path / 'b.csv'}\n", *form)
        assert from_config == explicit and "decoded 40 slots" in explicit[1]
        for a, b in (("a.bin", "b.bin"), ("a.csv", "b.csv")):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def test_config_keys_are_named_like_the_long_flags(tmp_path):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(
        codec.encode_stream(np.array([[v % codec.field.order, 1]
                                      for v in range(30)])),
        codec.field))
    explicit = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                    "--out", str(tmp_path / "a.bin")])
    from_config = config_run(tmp_path, "decode", f"descriptor={desc}\n"
                             f"in={enc}\nout={tmp_path / 'b.bin'}\n")
    assert from_config == explicit and "decoded 30 slots" in explicit[1]
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_config_cannot_change_the_command(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("command=bounds\n")
    code, text = run(["--config", str(cfg), "verify", "--b1", "1", "--t1", "2",
                      "--alpha-num", "2"])
    assert code == cli.EXIT_OK and "PASS" in text
    # keys that name no option of the command are ignored
    cfg.write_text("command=verify\nb1=1\nt1=2\nalpha-num=2\nsegments=3\n")
    code, text = run(["--config", str(cfg)])
    assert code == cli.EXIT_USAGE and text.startswith("usage: streamfec")
    code, text = run(["--config", str(cfg), "verify"])
    assert code == cli.EXIT_OK and "PASS" in text


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_missing_in_names_the_in_flag(tmp_path, capsys, command):
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(DeScoCodec(DeScoParams(1, 2, 2))))
    argv = [command, "--descriptor", str(desc), "--out", str(tmp_path / "o")]
    assert run(argv)[0] == cli.EXIT_USAGE
    assert capsys.readouterr().err \
        == "error: missing required option(s): --in\n"
    assert config_run(tmp_path, command, f"descriptor={desc}\n")[0] \
        == cli.EXIT_USAGE
    assert capsys.readouterr().err \
        == "error: missing required option(s): --in, --out\n"


def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys):
    code, text = config_run(tmp_path, "verify", "b1=abc\nt1=2\nalpha-num=2\n")
    assert code == cli.EXIT_USAGE and text == ""
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = "b1=1\nt1=2\nalpha-num=2\n"
    assert config_run(tmp_path, "verify",
                      "# verify defaults\n\n   \n  # b2 = 2\n" + cfg) \
        == config_run(tmp_path, "verify", cfg)


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("what\n")
    code, _ = run(["--config", str(cfg), "verify"])
    assert code == cli.EXIT_USAGE


def test_config_without_path_is_usage_error(capsys):
    assert cli.main(["--config"]) == cli.EXIT_USAGE
    assert "argument --config: expected one argument" \
        in capsys.readouterr().err


def test_command_first_builds_no_top_level_parser(tmp_path, monkeypatch):
    """A command line that starts with a command is parsed by that
    command's parser alone: the top-level parser, with every command's
    subparser, is not built."""
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    src_bin = tmp_path / "source.bin"
    enc_bin = tmp_path / "stream.bin"
    src_bin.write_bytes(wire.pack_stream(
        np.zeros((20, codec.subs_per_slot), dtype=int), codec.field))
    assert run(["encode", "--descriptor", str(desc), "--in", str(src_bin),
                "--out", str(enc_bin)])[0] == cli.EXIT_OK

    def no_parser():
        raise AssertionError("top-level parser built")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    for argv, text in [
            (["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2"], "PASS"),
            (["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
              "--bmax-list", "1", "--segments", "3", "--segment-len", "10"],
             "1,desco,2,0.0,30,0,0"),
            (["decode", "--descriptor", str(desc), "--in", str(enc_bin),
              "--out", str(tmp_path / "decoded.bin")], "decoded 20 slots")]:
        code, out = run(argv)
        assert code == cli.EXIT_OK and text in out, argv


def test_index_error_in_a_command_propagates(monkeypatch):
    def broken(args, out):
        raise IndexError("codec bug")

    monkeypatch.setitem(cli._PARSERS, "verify", (cli._verify_parser, broken))
    with pytest.raises(IndexError, match="codec bug"):
        run(["verify", "--b1", "1", "--t1", "2", "--alpha-num", "2"])


# ---------------------------------------------------------
# encode / decode round-trip
# ---------------------------------------------------------

def test_encode_decode_roundtrip(tmp_path):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    rng = random.Random(77)
    slots = 30
    source = np.array([tuple(rng.randrange(codec.field.order)
                             for _ in range(codec.subs_per_slot))
                       for _ in range(slots)])
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    src_bin = tmp_path / "source.bin"
    src_bin.write_bytes(wire.pack_stream(source, codec.field))
    enc_bin = tmp_path / "stream.bin"
    code, text = run(["encode", "--descriptor", str(desc),
                      "--in", str(src_bin), "--out", str(enc_bin)])
    assert code == cli.EXIT_OK and "encoded 30 slots" in text
    stream = wire.unpack_stream(enc_bin.read_bytes(), codec.field,
                                codec.symbol_width)
    assert np.array_equal(stream, codec.encode_stream(source))

    pattern = tmp_path / "pattern.txt"
    pattern.write_text("10:2\n")
    dec_bin = tmp_path / "decoded.bin"
    log_csv = tmp_path / "log.csv"
    code, text = run(["decode", "--descriptor", str(desc),
                      "--in", str(enc_bin), "--pattern", str(pattern),
                      "--user", "2", "--out", str(dec_bin),
                      "--log", str(log_csv)])
    assert code == cli.EXIT_OK and "0 misses" in text
    decoded = wire.unpack_stream(dec_bin.read_bytes(), codec.field,
                                 codec.subs_per_slot)
    assert np.array_equal(decoded, source)

    rows = list(csv.DictReader(log_csv.open()))
    assert len(rows) == slots
    by_slot = {int(r["slot"]): r for r in rows}
    assert int(by_slot[10]["delay"]) > 0 and by_slot[10]["miss"] == "0"
    assert by_slot[5]["recovery_slot"] == "5"


def test_encode_decode_roundtrip_with_two_byte_elements(tmp_path):
    """A GF(2^12) stream, two big-endian bytes per element, encodes and
    decodes through the CLI as ``encode_stream`` and ``decode`` do."""
    codec = DeScoCodec(DeScoParams(1, 2, 2), field=GF(12))
    rng = np.random.default_rng(12)
    source = rng.integers(0, codec.field.order, (40, codec.subs_per_slot))
    files = {k: tmp_path / k for k in ("codec", "source", "stream",
                                       "pattern", "rec")}
    files["codec"].write_text(descriptor(codec))
    files["source"].write_bytes(wire.pack_stream(source, codec.field))
    files["pattern"].write_text("3:2\n20:2\n")
    code, text = run(["encode", "--descriptor", str(files["codec"]),
                      "--in", str(files["source"]),
                      "--out", str(files["stream"])])
    assert code == cli.EXIT_OK and text == "encoded 40 slots\n"
    stream = codec.encode_stream(source)
    assert stream.dtype == np.uint16
    assert files["stream"].read_bytes() == stream.astype(">u2").tobytes()

    code, text = run(["decode", "--descriptor", str(files["codec"]),
                      "--in", str(files["stream"]),
                      "--pattern", str(files["pattern"]),
                      "--out", str(files["rec"])])
    erased = np.zeros(40, dtype=bool)
    erased[3:5] = erased[20:22] = True
    recovered, _ = codec.decode(stream, erased)
    assert code == cli.EXIT_OK
    assert text == "decoded 40 slots, 0 misses\n"
    assert files["rec"].read_bytes() == recovered.astype(">u2").tobytes()
    assert np.array_equal(recovered, source)


def test_decode_log_across_chunks_matches_row_by_row(tmp_path):
    """The log is written LOG_CHUNK rows at a time; over more than two
    chunks, with bursts on the chunk edges and unrecovered slots, it
    equals the log written one row at a time by csv.writer."""
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    chunk = cli.LOG_CHUNK
    slots = 2 * chunk + chunk // 2
    rng = np.random.default_rng(5)
    source = rng.integers(0, codec.field.order, (slots, codec.subs_per_slot))
    stream = codec.encode_stream(source)
    bursts = [(chunk - 1, 2), (2 * chunk - 1, 3), (slots - 2, 2)]
    files = {k: tmp_path / k for k in ("codec", "stream", "pattern", "rec",
                                       "log")}
    files["codec"].write_text(descriptor(codec))
    files["stream"].write_bytes(wire.pack_stream(stream, codec.field))
    files["pattern"].write_text("".join(f"{s}:{n}\n" for s, n in bursts))
    code, _ = run(["decode", "--descriptor", str(files["codec"]),
                   "--in", str(files["stream"]),
                   "--pattern", str(files["pattern"]), "--user", "1",
                   "--out", str(files["rec"]), "--log", str(files["log"])])
    assert code == cli.EXIT_OK

    erased = np.zeros(slots, dtype=bool)
    for start, n in bursts:
        erased[start:start + n] = True
    _, log = codec.decode(stream, erased)
    text = files["log"].read_bytes().decode("ascii")
    assert_same_log(text, row_by_row_log(log, codec.deadline(1)), slots)
    # the log holds unrecovered slots and slots recovered after the deadline
    assert ",,1\n" in text and ",1\n" in text.replace(",,1\n", "")


def row_by_row_log(log, deadline: int) -> str:
    """The decode log written one row at a time by csv.writer; a slot's
    recovery slot is the latest of its sub-symbols' times, read in
    Python from ``log.sub_times``."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["slot", "recovery_slot", "delay", "miss"])
    for slot, subs in enumerate(log.sub_times.tolist()):
        if min(subs) < 0:
            writer.writerow([slot, "", "", 1])
        else:
            t = max(subs)
            writer.writerow([slot, t, t - slot, int(t - slot > deadline)])
    return want.getvalue()


def assert_same_log(text: str, want: str, slots: int) -> None:
    """``text``, decoded from the log's bytes with no newline translation,
    equals ``want``; on failure the first differing row is shown, not a
    diff of the whole text, which is slow."""
    rows, want_rows = text.split("\n"), want.split("\n")
    assert len(rows) == len(want_rows) == slots + 2
    assert next((pair for pair in zip(rows, want_rows)
                 if pair[0] != pair[1]), None) is None


@pytest.mark.parametrize("params", [(1, 2, 2), (2, 5, 2)])
def test_decode_log_bytes_equal_row_by_row(tmp_path, params):
    """The log's bytes equal csv.writer's row-by-row log for both users,
    at horizons on each side of a digit-count edge (10, 100, 10 000) and
    of a LOG_CHUNK edge: random bursts at every horizon, some of them
    longer than the codec recovers, every slot erased (each row
    ``slot,,,1``) at two, and no --pattern at two."""
    codec = DeScoCodec(DeScoParams(*params))
    chunk = cli.LOG_CHUNK
    horizons = [0, 1, 9, 10, 11, 99, 100, 101, chunk - 1, chunk, chunk + 1,
                10_000, 10_001]
    cases = ([(slots, "bursts") for slots in horizons]
             + [(1, "all"), (chunk + 1, "all"), (0, None), (10_001, None)])
    rng = np.random.default_rng(17)
    files = {k: tmp_path / k for k in ("codec", "stream", "pattern", "rec",
                                       "log")}
    files["codec"].write_text(descriptor(codec))
    for slots, kind in cases:
        source = rng.integers(0, codec.field.order,
                              (slots, codec.subs_per_slot))
        stream = codec.encode_stream(source)
        files["stream"].write_bytes(wire.pack_stream(stream, codec.field))
        erased = np.zeros(slots, dtype=bool)
        argv = ["decode", "--descriptor", str(files["codec"]),
                "--in", str(files["stream"]), "--out", str(files["rec"]),
                "--log", str(files["log"])]
        if kind is not None:
            if kind == "all":
                bursts = [(0, slots)]
            else:
                starts = np.sort(rng.choice(slots, slots // 20, replace=False))
                bursts = [(s, min(int(n), slots - s)) for s, n in
                          zip(starts.tolist(), rng.integers(1, 8, len(starts)))]
            for start, n in bursts:
                erased[start:start + n] = True
            files["pattern"].write_text(
                "".join(f"{s}:{n}\n" for s, n in bursts))
            argv += ["--pattern", str(files["pattern"])]
        _, log = codec.decode(stream, erased)
        for user in (1, 2):
            code, _ = run(argv + ["--user", str(user)])
            assert code == cli.EXIT_OK, (slots, kind, user)
            assert_same_log(files["log"].read_bytes().decode("ascii"),
                            row_by_row_log(log, codec.deadline(user)), slots)


def test_decode_without_pattern_is_clean(tmp_path):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    stream = codec.encode_stream(np.array([[1, 0]] * 5))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(stream, codec.field))
    out = tmp_path / "d.bin"
    code, text = run(["decode", "--descriptor", str(desc),
                      "--in", str(enc), "--out", str(out)])
    assert code == cli.EXIT_OK and "0 misses" in text


def test_decode_inconsistent_stream_exits_4(tmp_path, capsys):
    # A zero stream with one non-zero source element at slot 1: after the
    # erasures at 0 and 4-5, two parities pin one sub-symbol differently.
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    stream = np.zeros((24, codec.symbol_width), dtype=np.int64)
    stream[1, 1] = 1
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(stream, codec.field))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("0:1\n4:2\n")
    code, _ = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                   "--pattern", str(pattern), "--out", str(tmp_path / "d.bin")])
    assert code == cli.EXIT_INCONSISTENT == 4
    err = capsys.readouterr().err
    assert err.startswith("error: inconsistent channel stream: ")
    assert err.count("\n") == 1
    # the line names the slot at whose parities the reference decoder
    # meets the contradiction
    erased = np.zeros(len(stream), dtype=bool)
    erased[[0, 4, 5]] = True
    with pytest.raises(InconsistentSystemError) as exc:
        reference_decode(codec.components, codec.field, codec.subs_per_slot,
                         codec.parities_per_slot, stream, erased)
    assert f" stream slot {exc.value.slot} " in err


@pytest.mark.parametrize("slot, code", [(0, cli.EXIT_OK),
                                        (1, cli.EXIT_USAGE)],
                         ids=["erased", "read"])
def test_decode_refuses_a_bad_element_only_where_it_is_read(tmp_path, capsys,
                                                             slot, code):
    """0xff is outside GF(2^3).  In a slot the pattern erases it is never
    read, and the stream decodes as if the slot held zeros; in a received
    slot it is a usage error naming its slot and column."""
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    data = bytearray(24 * codec.symbol_width)
    data[slot * codec.symbol_width + 2] = 0xff
    enc = tmp_path / "s.bin"
    enc.write_bytes(data)
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("0:1\n4:2\n")
    zeros = tmp_path / "zeros.bin"
    zeros.write_bytes(bytes(len(data)))
    dec, want = tmp_path / "d.bin", tmp_path / "want.bin"
    argv = ["decode", "--descriptor", str(desc), "--pattern", str(pattern)]
    got, text = run(argv + ["--in", str(enc), "--out", str(dec)])
    assert got == code
    if code == cli.EXIT_OK:
        assert run(argv + ["--in", str(zeros), "--out", str(want)]) \
            == (code, text)
        assert dec.read_bytes() == want.read_bytes()
    else:
        assert text == "" and not dec.exists()
        assert capsys.readouterr().err == (
            "error: element 255 at row 1, column 2 is not in GF(2^3)\n")


def test_cli_runs_as_a_process_of_its_own(tmp_path):
    """``python -m streamfec.cli`` exits with ``main``'s status: 0 for a
    pass, 2 for a usage error, 3 for a file it cannot read and 4 for a
    stream whose parities contradict, named by its stream slot."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def process(*argv):
        done = subprocess.run([sys.executable, "-m", "streamfec.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    code, out, _ = process("verify", "--b1", "1", "--t1", "2",
                           "--alpha-num", "2")
    assert code == 0 and out.splitlines()[-1] == "PASS"
    code, _, err = process("verify", "--bogus")
    assert code == 2 and "usage:" in err
    code, _, err = process("encode", "--descriptor", "missing.txt",
                           "--in", "missing.bin", "--out", "out.bin")
    assert code == 3 and err.startswith("i/o error: ")
    # parities that contradict the earlier ones exit 4, naming the
    # stream slot where the decoder meets the contradiction
    (tmp_path / "desco.txt").write_text(
        descriptor(DeScoCodec(DeScoParams(2, 5, 2))))
    corrupt = bytearray(24 * 7)
    corrupt[8] = 1
    (tmp_path / "corrupt.bin").write_bytes(corrupt)
    (tmp_path / "pattern.txt").write_text("0:1\n4:2\n")
    code, _, err = process("decode", "--descriptor", "desco.txt",
                           "--in", "corrupt.bin", "--pattern", "pattern.txt",
                           "--out", "decoded.bin")
    assert code == 4 and "the parities of stream slot 15 contradict" in err


def test_decode_pattern_run_past_the_stream_is_usage_error(tmp_path, capsys):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(
        codec.encode_stream(np.array([[1, 0]] * 10)), codec.field))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("0:1\n9:2\n")
    code, text = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                      "--pattern", str(pattern), "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == \
        "error: bad pattern line 2: '9:2' outside horizon 10\n"


def test_decode_negative_pattern_run_is_usage_error(tmp_path, capsys):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(
        codec.encode_stream(np.array([[1, 0]] * 10)), codec.field))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("5:-3\n")
    code, text = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                      "--pattern", str(pattern), "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_USAGE and text == ""
    assert "bad pattern line 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--pattern", "--descriptor", "--config"])
def test_non_utf8_file_names_flag_and_path(flag, tmp_path, capsys):
    """A file that is not UTF-8 is a usage error that names its flag and
    path, not only the byte that failed to decode."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff0:1\n")
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(
        codec.encode_stream(np.array([[1, 0]] * 10)), codec.field))
    argv = ["decode", "--descriptor", str(bad if flag == "--descriptor"
                                          else desc),
            "--in", str(enc), "--out", str(tmp_path / "d")]
    if flag == "--pattern":
        argv += ["--pattern", str(bad)]
    if flag == "--config":
        argv = ["--config", str(bad)] + argv
    code, text = run(argv)
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == (
        f"error: {flag} {bad} is not UTF-8 text: 'utf-8' codec can't "
        "decode byte 0xff in position 0: invalid start byte\n")
    assert not (tmp_path / "d").exists()


def test_decode_bad_user_is_usage_error(tmp_path, capsys):
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(codec))
    enc = tmp_path / "s.bin"
    enc.write_bytes(wire.pack_stream(
        codec.encode_stream(np.array([[1, 0]] * 10)), codec.field))
    code, text = run(["decode", "--descriptor", str(desc), "--in", str(enc),
                      "--user", "3", "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == "error: user must be in 1..2\n"
    assert not (tmp_path / "d").exists()  # refused before decoding


def test_encode_missing_input_is_io_error(tmp_path):
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(DeScoCodec(DeScoParams(1, 2, 2))))
    code, _ = run(["encode", "--descriptor", str(desc),
                   "--in", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "x.bin")])
    assert code == cli.EXIT_IO


def test_encode_corrupt_input_is_usage_error(tmp_path):
    desc = tmp_path / "codec.txt"
    desc.write_text(descriptor(DeScoCodec(DeScoParams(1, 2, 2))))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x01")  # not a whole record
    code, _ = run(["encode", "--descriptor", str(desc),
                   "--in", str(bad), "--out", str(tmp_path / "x.bin")])
    assert code == cli.EXIT_USAGE


def test_encode_parity_entry_outside_field_is_usage_error(tmp_path, capsys):
    desc = tmp_path / "codec.txt"
    desc.write_text("b1=2\nt1=5\na=2\nfield=3\nh=6-1f,5-2,1-3\n")
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(5 * 4))
    code, _ = run(["encode", "--descriptor", str(desc),
                   "--in", str(src), "--out", str(tmp_path / "x.bin")])
    assert code == cli.EXIT_USAGE == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 0, column 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    # parsed, and then a 2-slot burst missed both deadlines unreported
    ("b1=2\nt1=5\na=2\nfield=3\nh=0-0,0-0,0-0\n",
     "descriptor h=0-0,0-0,0-0 does not correct every burst of 2 erasures"),
    ("b1=x\nt1=5\na=2\nfield=3\n",
     "descriptor key b1 holds 'x', not an integer"),
    ("b1=2\nt1=5\na=2\nfield=3\nh=6-7,5-zz,1-3\n",
     "descriptor key h holds 'zz', not an integer"),
    # (2,5,2) has a 3 x 2 parity matrix
    ("b1=2\nt1=5\na=2\nfield=3\nh=1-2\n", "H must have t-b rows"),
    ("b1=2\nt1=5\na=2\nfield=3\nh=1,2,3\n", "H must have b columns"),
    # parsed, the last copy over GF(2^5) or the unknown line ignored
    ("b1=2\nt1=5\na=2\nfield=3\nfield=5\n",
     "descriptor key field is repeated"),
    ("b1=2\nt1=5\na=2\nfield=3\nalpha=3\n",
     "descriptor has an unknown key 'alpha'"),
    ("b1=2\nt1=5\na=2\nfield=3\ndelta=4\n",
     "descriptor has an unknown key 'delta'"),
])
def test_bad_descriptor_is_usage_error(tmp_path, capsys, text, message):
    desc = tmp_path / "codec.txt"
    desc.write_text(text)
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(5 * 4))
    code, _ = run(["encode", "--descriptor", str(desc),
                   "--in", str(src), "--out", str(tmp_path / "x.bin")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.bin").exists()


# ---------------------------------------------------------
# bounds
# ---------------------------------------------------------

def test_bounds_output():
    code, text = run(["bounds", "--b1", "1", "--t1", "2",
                      "--b2", "2", "--t2", "5"])
    assert code == cli.EXIT_OK
    assert "rate_upper_bound(b1=1, b2=2, t2=5) = 2/3" in text
    assert "optimal weak-receiver delay = 5" in text
    assert "feasible" in text


def test_bounds_infeasible_below_optimal_delay():
    code, text = run(["bounds", "--b1", "1", "--t1", "2",
                      "--b2", "2", "--t2", "4"])
    assert code == cli.EXIT_OK
    assert "infeasible" in text


def test_bounds_rejects_bad_ratio(capsys):
    code, _ = run(["bounds", "--b1", "2", "--t1", "3", "--b2", "2", "--t2", "8"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: need b2 > b1, got b2 = 2, b1 = 2\n"


def test_bounds_rational_alpha():
    # alpha = 3/2, the ratio verify accepts with --alpha-num 3 --alpha-den 2
    code, text = run(["bounds", "--b1", "2", "--t1", "3", "--b2", "3", "--t2", "8"])
    assert code == cli.EXIT_OK
    assert "rate_upper_bound(b1=2, b2=3, t2=8) = 2/3" in text
    assert "optimal weak-receiver delay = 7" in text
    assert "rate 3/5 at t2=8: feasible" in text


@pytest.mark.parametrize("flag, value, least", [("--b1", "0", 1),
                                                ("--t1", "-1", 0),
                                                ("--t2", "-5", 0)])
def test_bounds_out_of_range_is_usage_error(flag, value, least, capsys):
    # --b1 0 and --t1 -1 ended in a ZeroDivisionError (exit 1), and
    # --t2 -5 printed three lines before its error
    argv = ["bounds", "--b1", "1", "--t1", "2", "--b2", "2", "--t2", "5"]
    argv[argv.index(flag) + 1] = value
    code, text = run(argv)
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err == \
        f"error: {flag} must be >= {least}: {value}\n"
