"""Record the output digests every run checks at the default seed.

    python3 bench/record_golden.py            # all workloads
    python3 bench/record_golden.py grid-sweep # one workload

Writes ``bench/golden.json``.  A change that alters a simulated output
must re-record it on purpose and say why.
"""

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, GOLDEN_PATH, ROOT, WORKLOADS, import_program

#: reach-profile operations recorded (chips; a 20 s run profiles about 170).
REACH_CHIPS = 256


def main() -> int:
    import_program()
    import workloads
    from benchmarks.benchutil import cpu_count

    names = sys.argv[1:] or list(WORKLOADS)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    work_dir = ROOT / ".bench_work" / f"golden-{os.getpid()}"
    try:
        for name in names:
            workload = workloads.make_workload(name, DEFAULT_SEED, work_dir, cpu_count())
            ops = REACH_CHIPS if name == "reach-profile" else 1
            golden["digests"][name] = {
                str(result.key): result.digest
                for result in (workload.run_op(index) for index in range(ops))
            }
            print(f"{name}: {ops} digests", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
