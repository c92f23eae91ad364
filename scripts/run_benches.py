#!/usr/bin/env python3
"""Declarative CI bench runner: the table below IS the bench matrix.

Each row names a bench binary, the --benchmark_filter/--benchmark_min_time
shape of its CI smoke run, and the scripts/check_bench.py gate arguments for
its JSON output. The workflow calls

    python3 scripts/run_benches.py --build-dir build

once instead of carrying one copy-pasted "Smoke-run X bench (JSON)" step per
binary — adding a bench to CI is adding a row here (and its .json name to
the artifact upload list), not editing workflow YAML.

Per row the runner:

  * fails if the binary is missing (a bench that stops being configured must
    fail the push, not silently vanish from coverage),
  * runs it with the row's filter/min_time, teeing JSON output (when the row
    wants it) to --out-dir/<artifact>,
  * pipes that JSON through check_bench.py with the row's gate arguments, so
    a bench that bit-rots into garbage — or a filter that stops matching —
    fails the push before the artifact uploads.

Rows run in table order and the first failure stops the run (same semantics
as the former one-step-per-bench workflow). --only NAME (repeatable)
restricts the run; --list prints the table and exits.
"""

import argparse
import dataclasses
import pathlib
import subprocess
import sys
from typing import List, Optional


@dataclasses.dataclass(frozen=True)
class Bench:
    name: str            # row name for --only / logs
    binary: str          # executable under --build-dir
    filter: Optional[str] = None    # --benchmark_filter regex (None = all)
    min_time: Optional[str] = None  # --benchmark_min_time (None = default)
    json: bool = True    # False = plain smoke run, no artifact, no gate
    gate: tuple = ()     # extra check_bench.py args after the json path


# The CI bench matrix. Filters and gates are the load-bearing part: each
# --expect pins a series that must exist (renames fail loudly), each
# --compare is a regression gate between two series of one run, --max-ns is
# the absolute hot-path budget, --max-counter an absolute ceiling on a
# per-item counter (see check_bench.py for semantics, including which
# comparisons self-skip on hosts that cannot run the TEST series).
BENCHES: List[Bench] = [
    # The signature hot path: the batch series must exist, and single sign
    # and verify stay under an absolute budget. A noisy 4-vCPU x86-64 VM
    # reads 40-56 us and 53-104 us at this min_time; the double-and-add
    # arithmetic they replaced took 380-620 us, so 200 us catches a fall
    # back to it without flaking on a slow runner.
    # The bulk-hash series: BLAKE2bp through the dispatched stripe kernel
    # must cost fewer ns per byte than sequential BLAKE2b on a 256 KiB block
    # (the same VM: 0.50-0.53 against 1.40-1.46), which fails the push if
    # the kernel ever falls back to the compiler's generic vector lowering.
    Bench(name="micro_crypto", binary="bench_micro_crypto",
          filter="BM_Ed25519(Sign|Verify)$|Ed25519VerifyBatch|Ed25519VerifySingleLoop"
                 "|BM_Blake2b",
          min_time="0.05",
          gate=("--expect", "BM_Ed25519VerifyBatch",
                "--expect", "BM_Blake2bp256",
                "--max-ns", "BM_Ed25519Sign$", "200000",
                "--max-ns", "BM_Ed25519Verify$", "200000",
                "--compare", "NsPerByte", "BM_Blake2b256/262144",
                "BM_Blake2bp256/262144")),

    # DAG hot paths: inserting one fully connected round (every parent
    # resolved through its (round, author) cell), structural validation and
    # IsLink at n = 10 and 50. The DAG's digest index belongs to ingress
    # only: one insertion per block, so more than 2 probes per inserted
    # block means a parent walk went back to hashing digests. Building a
    # 256 KiB block from admitted batches hashes only its preimage, so it
    # must cost less than decoding one, which hashes every payload byte: the
    # author path hashing payloads again fails the compare.
    Bench(name="micro_dag", binary="bench_micro_dag",
          filter="BM_DagInsertRound|BM_BlockValidate|BM_IsLink|BM_BlockMake"
                 "|BM_BlockDeserialize",
          min_time="0.05",
          gate=("--expect", "BM_DagInsertRound",
                "--expect", "BM_BlockValidate",
                "--expect", "BM_IsLink",
                "--expect", "BM_BlockMake",
                "--max-counter", "DigestProbesPerBlock", "BM_DagInsertRound", "2",
                "--compare", "MicrosPerBlock", "BM_BlockDeserialize/262144",
                "BM_BlockMake/262144")),

    Bench(name="mempool", binary="bench_mempool",
          filter="BM_MempoolSubmit/shards:(1|8).*threads:8", min_time="0.05",
          gate=("--expect", "BM_MempoolSubmit")),

    # Loop-thread time per commit batch (the commit rule's cost): the series
    # must be present and well-formed.
    Bench(name="committer", binary="bench_committer",
          filter="BM_CommitBatch", min_time="0.05",
          gate=("--expect", "BM_CommitBatchSerial")),

    # Inline-sync vs group-commit append cost, and the durable group
    # latency with and without fsync.
    Bench(name="wal", binary="bench_wal",
          filter="BM_Wal", min_time="0.05",
          gate=("--expect", "BM_WalAppendInlineSync",
                "--expect", "BM_WalAppendGroupCommit",
                "--expect", "BM_WalGroupDurableLatency",
                "--expect", "BM_WalGroupDurableFsync")),

    # Monolithic replay vs checkpoint + segment-suffix, plus catch-up
    # transfer (full-cut re-send vs delta-chain links). The benches fail
    # themselves on superlinear per-record replay time and on delta
    # catch-up bytes that grow with history length (error_occurred entries
    # fail the gate); the compare additionally pins the delta chain's mean
    # CatchupBytes under the monolithic re-send's.
    Bench(name="recovery", binary="bench_recovery",
          filter="BM_Recovery", min_time="0.05",
          gate=("--expect", "BM_RecoveryReplayMonolithic",
                "--expect", "BM_RecoveryReplayCheckpointSuffix",
                "--expect", "BM_RecoveryCatchupMonolithic",
                "--expect", "BM_RecoveryCatchupDeltaChain",
                "--compare", "CatchupBytes",
                "BM_RecoveryCatchupMonolithic",
                "BM_RecoveryCatchupDeltaChain")),

    # Syscalls per committed block on a real 11-validator committee
    # (Iterations(1): one cluster run — no min_time).
    Bench(name="io_plane", binary="bench_io_plane",
          gate=("--expect", "BM_IoPlaneCluster")),

    # The registry's contract with the pipeline: every record primitive one
    # relaxed atomic add, held under 50 ns single-threaded. (The 8-thread
    # counter series runs for the scaling signal but is not gated: CI
    # runners oversubscribe.)
    Bench(name="obs", binary="bench_obs", min_time="0.05",
          gate=("--expect", "BM_ObsRegistryDump",
                "--max-ns", "BM_ObsCounterAdd/real_time/threads:1", "50",
                "--max-ns", "BM_ObsHistogramRecord", "50",
                "--max-ns", "BM_ObsSpanStamp", "50",
                "--max-ns", "BM_FlightRecorderEvent/real_time/threads:1", "50")),

    # Serial vs conflict-aware parallel apply across the conflict-rate
    # sweep. Parallel must beat serial on the fully disjoint workload; the
    # parallel series only registers on hosts with >= 2 hardware threads,
    # and the compare self-skips (with a note) where it is absent. The KV
    # store's per-command series must exist too.
    Bench(name="execution", binary="bench_execution", min_time="0.05",
          gate=("--expect", "BM_ExecApplySerial",
                "--expect", "BM_KvStoreApply",
                "--compare", "MicrosPerBatch",
                "BM_ExecApplySerial/conflict:0",
                "BM_ExecApplyParallel/conflict:0")),

    # The design ablations through the simulator (wave stride, direct skip,
    # wave length 3, GC depth): a plain smoke run, no artifact, so the sim's
    # GC-depth sweep runs on every push and must exit zero.
    Bench(name="ablations", binary="bench_ablations", json=False),
]


def fail(message: str) -> None:
    print(f"run_benches: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(bench: Bench, build_dir: pathlib.Path, out_dir: pathlib.Path,
              check_bench: pathlib.Path) -> None:
    binary = build_dir / bench.binary
    if not binary.is_file():
        fail(f"{bench.name}: missing binary {binary} (target not built?)")

    command = [str(binary)]
    if bench.filter is not None:
        command.append(f"--benchmark_filter={bench.filter}")
    if bench.min_time is not None:
        command.append(f"--benchmark_min_time={bench.min_time}")
    if bench.json:
        command.append("--benchmark_format=json")

    print(f"run_benches: [{bench.name}] {' '.join(command)}", flush=True)
    result = subprocess.run(command, stdout=subprocess.PIPE if bench.json else None)
    if result.returncode != 0:
        fail(f"{bench.name}: {bench.binary} exited {result.returncode}")
    if not bench.json:
        return

    artifact = out_dir / f"bench_{bench.name}.json"
    artifact.write_bytes(result.stdout)
    gate = [sys.executable, str(check_bench), str(artifact), *bench.gate]
    print(f"run_benches: [{bench.name}] {' '.join(gate[1:])}", flush=True)
    if subprocess.run(gate).returncode != 0:
        fail(f"{bench.name}: check_bench gate failed on {artifact}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=pathlib.Path,
                        help="directory holding the bench binaries")
    parser.add_argument("--out-dir", default=".", type=pathlib.Path,
                        help="where bench_<name>.json artifacts are written")
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run only the named row(s); repeatable")
    parser.add_argument("--list", action="store_true",
                        help="print the bench table and exit")
    args = parser.parse_args()

    if args.list:
        for bench in BENCHES:
            shape = "json" if bench.json else "smoke"
            print(f"{bench.name:12} {bench.binary:22} {shape}")
        return

    names = {bench.name for bench in BENCHES}
    unknown = [only for only in args.only if only not in names]
    if unknown:
        fail(f"unknown --only rows {unknown}; have {sorted(names)}")

    selected = [b for b in BENCHES if not args.only or b.name in args.only]
    check_bench = pathlib.Path(__file__).resolve().parent / "check_bench.py"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for bench in selected:
        run_bench(bench, args.build_dir, args.out_dir, check_bench)
    print(f"run_benches: OK: {len(selected)} bench rows passed")


if __name__ == "__main__":
    main()
