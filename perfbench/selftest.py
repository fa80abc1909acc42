#!/usr/bin/env python3
"""Self-test of the benchmark's checks, on tiny versions of every workload.

    python3 perfbench/selftest.py

For each workload it runs, each in its own process:
  1. an untraced repetition: must report no failed op or check;
  2. a traced repetition: must report exactly the same simulated results
     and counts (tracing is observe-only), and every event label it
     profiles must map to a layer;
  3. a repetition with one byte of member drive 1 flipped after set-up:
     must report failed ops or failed checks, so the checker is not
     vacuous.
Exits 0 when all hold, 1 otherwise.
"""

import sys

import run

SEED = 7


def main():
    run.build()
    wrong = 0
    for workload in run.WORKLOADS:
        clean, _ = run.run_rep(workload, SEED, False, ["--tiny"])
        traced, _ = run.run_rep(workload, SEED, True, ["--tiny"])
        flipped, _ = run.run_rep(workload, SEED, False, ["--tiny", "--flip"])

        problems = run.check([clean], [traced])
        problems += run.per_layer([clean], [traced])[1]
        d = flipped["det"]
        if d["failed_ops"] + d["check_failed"] == 0:
            problems.append("a flipped drive byte went unnoticed")
        c = clean["det"]
        print(f"{workload:17s} clean: "
              f"{c['failed_ops'] + c['check_failed']} of "
              f"{c['ops'] + c['check_units']} failed; flipped: "
              f"{d['failed_ops']} ops + {d['check_failed']} checks failed; "
              f"{'ok' if not problems else 'WRONG: ' + '; '.join(problems)}")
        wrong += bool(problems)
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
