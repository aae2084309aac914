"""CPU time and memory of the program's processes, read from the kernel."""

import os
import resource

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def tree_cpu_s(pids):
    """User + system CPU seconds so far of live processes (all threads)."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5); ``fields``
        # starts at field 3.
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def children_cpu_s():
    """CPU seconds of every reaped child, grandchildren included."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb():
    """Largest resident set of any reaped descendant [MB]."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

