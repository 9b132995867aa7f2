#!/usr/bin/env python3
"""Record the policy outcome each benchmark seed must reproduce.

    python3 perfbench/record_expected.py --workload <name> --seeds 0-99

Runs the workload once per seed, untraced, and writes its outcome digest
and energy_kwh into perfbench/expected.json, which run.py checks every
run against. A performance or simplicity change must leave these
unchanged; re-record only for a change that is meant to alter policy
outcomes, and say so where the change is described.
"""

import argparse
import json
import os
import shutil

import run


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed or an inclusive range, e.g. 0-99")
    args = parser.parse_args()

    run.build()
    expected = run.load_json(run.EXPECTED) \
        if os.path.isfile(run.EXPECTED) else {}
    recorded = expected.setdefault(args.workload, {})
    for seed in args.seeds:
        work_dir = os.path.join(run.BUILD_ROOT, "record-%s-%d-%d" % (
            args.workload, seed, os.getpid()))
        os.makedirs(work_dir)
        try:
            run_set = run.RunSet(args.workload, seed, work_dir)
            run_set.prepare()
            run_set.run()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if not run_set.records or run_set.records[0]["violations"]:
            run.fail("%s seed %d did not run cleanly" % (args.workload, seed))
        record = run_set.records[0]
        recorded[str(seed)] = {"digest": record["digest"],
                               "energy_kwh": record["energy_kwh"]}
        run.log("%s seed %d: digest %s, %r kWh" % (
            args.workload, seed, record["digest"], record["energy_kwh"]))

    for workload in expected:
        expected[workload] = dict(sorted(expected[workload].items(),
                                         key=lambda kv: int(kv[0])))
    with open(run.EXPECTED, "w") as f:
        json.dump(dict(sorted(expected.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
