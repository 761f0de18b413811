"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Not part of the repository's test suite (``testpaths`` is ``tests``):
it checks the harness, not streamfec.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=False)


def result(done):
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny"))
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tampered_parity_is_a_failed_operation():
    # The decoder trusts received parities, so one flipped parity bit next
    # to a burst yields a wrong recovered slot; the harness must catch it.
    res = result(bench("--workload", "stream_roundtrip", "--seed", "3",
                       "--seconds", "1", "--size", "tiny", "--tamper"))
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert "attempted" not in done.stdout


def test_wrong_byte_in_an_unrecovered_slot_is_a_failed_check(tmp_path):
    # The log gives no recovery time to a slot with any sub-symbol missing;
    # the recovered sub-symbols of such a slot are still checked.
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run

    for seed in range(1, 50):
        work = tmp_path / str(seed)
        work.mkdir()
        workload = run.StreamRoundtrip("tiny", seed, work, tamper=False)
        client = run.Client()
        workload.iteration(client)
        assert client.failed == 0
        log = Path(workload.files["log"]).read_text().splitlines()[1:]
        unrecovered = [int(row.split(",")[0]) for row in log
                       if row.split(",")[1] == ""]
        if unrecovered:
            break
    else:
        pytest.fail("no seed left a slot unrecovered")
    k = workload.SUBS
    pos = unrecovered[0] * k
    rec = bytearray(Path(workload.files["rec"]).read_bytes())
    rec[pos] = 1 if workload.source[pos] != 1 else 2
    Path(workload.files["rec"]).write_bytes(bytes(rec))
    out = f"decoded {workload.slots} slots, 0 misses"
    assert "wrong value" in workload.check_decode(out)
