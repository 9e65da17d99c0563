"""Set-up probe: a fresh process that gets a workload's first operation
ready, prints ``ready``, then tears down and exits.

``run.py`` times a few of these from spawn to the ``ready`` line for the
``setup_s`` metric: interpreter start, imports, building the inputs and,
for service-mix, starting the service and answering its first ``healthz``.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import os
import shutil
import sys

from run import ROOT, import_program

if __name__ == "__main__":
    import_program()
    import workloads
    from benchmarks.benchutil import cpu_count

    name, seed = sys.argv[1], int(sys.argv[2])
    work_dir = ROOT / ".bench_work" / f"probe-{os.getpid()}"
    try:
        workload = workloads.make_workload(name, seed, work_dir, cpu_count())
        with workload.ready():
            print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
