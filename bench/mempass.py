"""One untraced pass in a fresh interpreter; prints the process's peak RSS.

`run.py` starts this as a child, so the peak resident set size covers exactly
one pass (plus the interpreter and its imports) at no tracing cost:

    python3 bench/mempass.py <workload> <seed> <workdir>

The last line of standard output is the peak RSS in bytes.
"""

import resource
import sys

import run

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    problems = run.workloads.generate(workload, seed, workdir)
    run.Checker(workload, problems, workdir).run_pass()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)  # ru_maxrss is in KiB
