"""Record the test-split AUC the current program gives per workload and seed.

    python3 perfbench/record_reference.py --seeds 0-31

Run it on the commit whose outputs are the reference. ``run.py`` then fails
any operation whose AUC for a recorded seed differs from the value stored
in ``reference.json``. The training split does not depend on the seed, so
each workload trains once and scores the test split of every seed.
"""

import argparse
import json
import time

from run import (REFERENCE_FILE, WORKLOADS, check_report, make_inputs, noisy_test_split,
                 prepare, train_config)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args()
    _, mods, numpy = prepare()
    dataio, train_mod = mods["dataio"], mods["train"]
    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh)
    for workload, spec in WORKLOADS.items():
        test = noisy_test_split(dataio, spec, args.seeds[0], numpy)
        train_ds, _ = make_inputs(dataio, spec, test)
        checkpoint = train_mod.train(train_ds, train_config(train_mod, spec)).checkpoint
        aucs = reference["auc"].setdefault(workload, {})
        for seed in args.seeds:
            _, test_ds = make_inputs(dataio, spec, noisy_test_split(dataio, spec, seed, numpy))
            t0 = time.perf_counter()
            report = train_mod.score(test_ds, checkpoint)
            elapsed = time.perf_counter() - t0
            problems = check_report(numpy, report, None)
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {'; '.join(problems)}")
            aucs[str(seed)] = report.auc
            print(json.dumps({"workload": workload, "seed": seed, "auc": report.auc,
                              "score_s": elapsed}), flush=True)
        with open(REFERENCE_FILE, "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
