#!/usr/bin/env python3
"""Smoke gate for google-benchmark JSON output.

CI pipes each bench binary's --benchmark_format=json output into a file and
runs this gate on it before uploading the file as a workflow artifact. The
gate fails (exit 1) on:

  * unreadable or malformed JSON,
  * an empty or missing "benchmarks" list,
  * entries that reported an error (error_occurred / error_message),
  * entries with a missing, non-finite or negative real_time,
  * (with --expect NAME) no benchmark whose name contains NAME,
  * (with --compare COUNTER BASE TEST) a TEST-matching entry whose COUNTER
    mean exceeds the BASE-matching entries' mean,
  * (with --max-ns PATTERN NANOS) entries whose name PATTERN (a regular
    expression, so a plain name matches as a substring and NAME$ matches
    only NAME) searches, when their mean real_time exceeds NANOS nanoseconds
    — the absolute hot-path budget gate (bench_obs: a metrics-registry
    record must stay under 50 ns; bench_micro_crypto: ed25519 sign and
    verify),
  * (with --max-counter COUNTER PATTERN MAX) any entry PATTERN searches whose
    COUNTER exceeds MAX, or no matching entry carrying COUNTER — an absolute
    ceiling on a per-item counter (bench_micro_dag: DAG digest-index probes
    per inserted block).

So a bench that bit-rots into producing garbage — or a CI step whose filter
matches nothing — fails the push instead of silently uploading junk.

--compare is the regression gate between two series of one run: for
example bench_micro_crypto reports NsPerByte for sequential BLAKE2b and the
four-lane BLAKE2bp kernel on one block size, and

    check_bench.py bench_micro_crypto.json \
        --compare NsPerByte BM_Blake2b256/262144 BM_Blake2bp256/262144

fails the push if the four-lane kernel ever costs more per byte. When no
benchmark matches TEST, the comparison is skipped with a note — a series
that only registers on some hosts (bench_execution's parallel apply needs
two hardware threads) is not a regression where it is absent.

Usage: check_bench.py FILE.json [--expect NAME_SUBSTRING]...
                      [--compare COUNTER BASE_SUBSTRING TEST_SUBSTRING]...
                      [--max-ns NAME_PATTERN NANOS]...
                      [--max-counter COUNTER NAME_PATTERN MAX]...
"""

import argparse
import json
import math
import re
import sys


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="google-benchmark JSON output file")
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        metavar="NAME_SUBSTRING",
        help="require at least one benchmark whose name contains this "
        "substring (repeatable)",
    )
    parser.add_argument(
        "--compare",
        action="append",
        default=[],
        nargs=3,
        metavar=("COUNTER", "BASE_SUBSTRING", "TEST_SUBSTRING"),
        help="fail when the mean of COUNTER over benchmarks matching "
        "TEST_SUBSTRING exceeds the mean over those matching BASE_SUBSTRING; "
        "skipped with a note when nothing matches TEST_SUBSTRING (repeatable)",
    )
    parser.add_argument(
        "--max-ns",
        action="append",
        default=[],
        nargs=2,
        metavar=("NAME_PATTERN", "NANOS"),
        help="fail when the mean real_time (converted to ns) over benchmarks "
        "whose name NAME_PATTERN (a regex, searched) matches exceeds NANOS, "
        "or when nothing matches (repeatable)",
    )
    parser.add_argument(
        "--max-counter",
        action="append",
        default=[],
        nargs=3,
        metavar=("COUNTER", "NAME_PATTERN", "MAX"),
        help="fail when any benchmark whose name NAME_PATTERN (a regex, "
        "searched) matches reports COUNTER above MAX, or when no matching "
        "benchmark carries COUNTER (repeatable)",
    )
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{args.file}: {error}")

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(f"{args.file}: empty or missing 'benchmarks' list")

    names = []
    for entry in benchmarks:
        name = entry.get("name")
        if not name:
            fail(f"{args.file}: benchmark entry without a name: {entry!r}")
        if entry.get("error_occurred"):
            fail(f"{name}: {entry.get('error_message', 'error_occurred')}")
        names.append(name)
        if entry.get("run_type") == "aggregate":
            continue  # aggregates (mean/median/stddev) carry derived timings
        real_time = entry.get("real_time")
        if (
            not isinstance(real_time, (int, float))
            or isinstance(real_time, bool)
            or not math.isfinite(real_time)
            or real_time < 0
        ):
            fail(f"{name}: bad real_time {real_time!r}")

    for expect in args.expect:
        if not any(expect in name for name in names):
            shown = ", ".join(names[:10])
            fail(f"{args.file}: no benchmark matching '{expect}' (have: {shown})")

    for counter, base_substr, test_substr in args.compare:
        def counter_values(substring: str) -> list:
            values = []
            for entry in benchmarks:
                if entry.get("run_type") == "aggregate":
                    continue
                if substring not in entry.get("name", ""):
                    continue
                value = entry.get(counter)
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not math.isfinite(value)
                ):
                    fail(f"{entry['name']}: bad {counter} {value!r}")
                values.append(value)
            return values

        test_values = counter_values(test_substr)
        if not test_values:
            print(
                f"check_bench: note: no benchmark matching '{test_substr}' "
                f"carries {counter}; comparison skipped"
            )
            continue
        base_values = counter_values(base_substr)
        if not base_values:
            fail(
                f"{args.file}: --compare {counter}: nothing matching "
                f"'{base_substr}' carries the counter"
            )
        base_mean = sum(base_values) / len(base_values)
        test_mean = sum(test_values) / len(test_values)
        if test_mean > base_mean:
            fail(
                f"{counter}: '{test_substr}' mean {test_mean:.3f} exceeds "
                f"'{base_substr}' mean {base_mean:.3f}"
            )
        print(
            f"check_bench: OK: {counter}: '{test_substr}' {test_mean:.3f} <= "
            f"'{base_substr}' {base_mean:.3f}"
        )

    # google-benchmark reports real_time in the entry's time_unit (ns unless a
    # bench opted into Unit(kMicrosecond) etc.); normalize before gating.
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

    for name_substr, nanos_text in args.max_ns:
        try:
            limit_ns = float(nanos_text)
        except ValueError:
            fail(f"--max-ns {name_substr}: bad nanosecond limit {nanos_text!r}")
        times = []
        for entry in benchmarks:
            if entry.get("run_type") == "aggregate":
                continue
            if not re.search(name_substr, entry.get("name", "")):
                continue
            unit = entry.get("time_unit", "ns")
            if unit not in to_ns:
                fail(f"{entry['name']}: unknown time_unit {unit!r}")
            times.append(entry["real_time"] * to_ns[unit])
        if not times:
            fail(f"{args.file}: --max-ns: no benchmark matching '{name_substr}'")
        mean_ns = sum(times) / len(times)
        if mean_ns > limit_ns:
            fail(
                f"--max-ns: '{name_substr}' mean {mean_ns:.1f} ns exceeds "
                f"limit {limit_ns:.1f} ns"
            )
        print(
            f"check_bench: OK: '{name_substr}' mean {mean_ns:.1f} ns <= "
            f"{limit_ns:.1f} ns"
        )

    for counter, name_pattern, max_text in args.max_counter:
        try:
            ceiling = float(max_text)
        except ValueError:
            fail(f"--max-counter {counter}: bad ceiling {max_text!r}")
        values = []
        for entry in benchmarks:
            if entry.get("run_type") == "aggregate":
                continue
            if not re.search(name_pattern, entry.get("name", "")):
                continue
            value = entry.get(counter)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                fail(f"{entry['name']}: bad {counter} {value!r}")
            if value > ceiling:
                fail(f"--max-counter: {entry['name']} {counter} {value:.3f} "
                     f"exceeds {ceiling:.3f}")
            values.append(value)
        if not values:
            fail(f"{args.file}: --max-counter: no benchmark matching "
                 f"'{name_pattern}' carries {counter}")
        print(f"check_bench: OK: {counter} <= {ceiling:.3f} on {len(values)} "
              f"'{name_pattern}' entries (max {max(values):.3f})")

    print(f"check_bench: OK: {args.file}: {len(names)} benchmark entries")


if __name__ == "__main__":
    main()
