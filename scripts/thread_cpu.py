#!/usr/bin/env python3
"""Per-role CPU of a running process: user and sys CPU per thread name.

The runtime names its threads by role (src/common/thread_name.h): mm-loop,
mm-verify, mm-exec-merge, mm-exec and mm-wal. This script samples
/proc/<pid>/task/*/stat at two points of the process's life and prints, per
thread name, the CPU the threads of that name spent between them:

    python3 scripts/thread_cpu.py --pid 1234 --from 10 --to 19

--from and --to are seconds since the process started; the script sleeps
until each point (a point already past is sampled at once). A thread that
starts inside the window counts from zero; a thread that exits inside it is
missing from the second sample, so its CPU is not counted.
"""

import argparse
import os
import sys
import time
from pathlib import Path

TICK = os.sysconf("SC_CLK_TCK")


def process_age(pid):
    """Seconds since `pid` started."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - start_ticks / TICK


def sample(pid):
    """{tid: (name, user ticks, sys ticks)} for every live thread of `pid`."""
    threads = {}
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            stat = (task / "stat").read_text()
        except OSError:
            continue  # exited between the listing and the read
        # The name sits in parentheses and may itself contain spaces.
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        threads[int(task.name)] = (name, int(fields[11]), int(fields[12]))
    return threads


def wait_until(pid, age):
    delay = age - process_age(pid)
    if delay > 0:
        time.sleep(delay)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pid", type=int, required=True)
    parser.add_argument("--from", dest="start", type=float, required=True,
                        help="window start, seconds since the process started")
    parser.add_argument("--to", dest="end", type=float, required=True,
                        help="window end, seconds since the process started")
    args = parser.parse_args()
    if args.end <= args.start:
        parser.error("--to must be after --from")

    try:
        wait_until(args.pid, args.start)
        before = sample(args.pid)
        wait_until(args.pid, args.end)
        after = sample(args.pid)
    except FileNotFoundError:
        print(f"thread_cpu.py: process {args.pid} is gone", file=sys.stderr)
        return 1

    roles = {}
    for tid, (name, user, system) in after.items():
        _, user0, system0 = before.get(tid, (name, 0, 0))
        role = roles.setdefault(name, [0, 0, 0])
        role[0] += 1
        role[1] += user - user0
        role[2] += system - system0

    total = sum(r[1] + r[2] for r in roles.values()) or 1
    print(f"{'thread':<16} {'threads':>7} {'user_s':>8} {'sys_s':>8} {'cpu_s':>8} {'share':>7}")
    for name, (count, user, system) in sorted(roles.items(),
                                               key=lambda kv: -(kv[1][1] + kv[1][2])):
        print(f"{name:<16} {count:>7} {user / TICK:>8.2f} {system / TICK:>8.2f} "
              f"{(user + system) / TICK:>8.2f} {100 * (user + system) / total:>6.1f}%")
    print(f"{'total':<16} {len(after):>7} {'':>8} {'':>8} {total / TICK:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
