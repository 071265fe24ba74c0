"""Starts the benchmark's children from a process that stays small.

    python3 -I -S bench/spawner.py CPU

The kernel carries a process's peak RSS across exec, so a child spawned
straight from run.py would report at least run.py's own peak RSS (hashlib
and the checks alone take it past a propb child's).  run.py starts this
process once and sends it one JSON request per line on stdin:

    {"argv": [...], "stdout": PATH, "stderr": PATH, "sample": BOOL}

stdout and stderr are files that run.py reads once the child has exited.
The reply, one JSON line each on stdout, is {"pid": N} once the child runs,
then {"status": S, "wall": s, "cpu": s, "maxrss_kb": n, "ref": s,
"sampled": s} once it has been reaped, or {"error": msg} if it could not be
started.
Imports stay minimal: the peak RSS of this process is the floor of every
child's.

This process and every child it starts run on the one CPU given on the
command line.  The host's vCPUs change speed by up to 2x every few seconds,
each on its own, so with "sample" set the spawner also measures the speed
of that CPU while the child runs: every SAMPLE_EVERY_S it runs the fixed
reference loop `reference` and times it.  "ref" is the harmonic mean of
the samples taken just before, during and just after the child: the work a
loop-sized slice of time holds is 1/duration, and samples come evenly in
time, so wall / ref is the number of reference loops the CPU could have run
instead of the child.  run.py divides the child's times by it.  "wall"
excludes the samples taken while the child ran ("sampled" seconds), since
the child could not run then.
"""

import json
import os
import select
import sys
import time

SAMPLE_EVERY_S = 0.02
REFERENCE_ROUNDS = 2000
# A sampled child runs at the lowest priority.  Alone on the CPU it loses
# nothing by it, but it can no longer preempt a reference loop half-way,
# which would add a slice of the child's time to the sample.
CHILD_NICE = 19


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work (about 1 ms)."""
    acc = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ROUNDS):
        pair = (i, i * 7 % 13)
        acc ^= hash(pair)
        acc += len("%d %d" % pair)
    return time.perf_counter() - start


def serve(requests, replies) -> None:
    for line in requests:
        request = json.loads(line)
        out, err = (os.open(request[f], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for f in ("stdout", "stderr"))
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ]
        around = [reference()] if request["sample"] else []
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        except OSError as exc:
            replies.write(json.dumps({"error": str(exc)}) + "\n")
            replies.flush()
            continue
        finally:
            os.close(out)
            os.close(err)
        if request["sample"]:
            os.setpriority(os.PRIO_PROCESS, pid, CHILD_NICE)
        replies.write(json.dumps({"pid": pid}) + "\n")
        replies.flush()
        during = []
        if request["sample"]:
            exited = os.pidfd_open(pid)
            while not select.select([exited], [], [], SAMPLE_EVERY_S)[0]:
                during.append(reference())
            os.close(exited)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start - sum(during)
        if request["sample"]:
            around.append(reference())
        samples = around + during
        reply = {
            "status": status,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "ref": len(samples) / sum(1 / d for d in samples) if samples else 0.0,
            "sampled": sum(during),
        }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    serve(sys.stdin, sys.stdout)
