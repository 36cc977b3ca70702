"""Record expected.json, the output check's reference values.

Run once, at a commit whose outputs are trusted, from the checkout root:

    python3 perfbench/record_expected.py

Each invocation of each workload runs once with workload seeds 0 and 1;
their outcomes must agree, since the checked fields do not depend on the
seed. Witnesses are re-derived with evaluate/dist before anything is
written.
"""

import json
import os
import shutil
import sys

from run import ROOT   # puts this checkout's src/ first on sys.path
import workloads
from fixedlab import main
from outputs import EXPECTED_PATH, outcome, recompute_witnesses


def record(workload: str, seed: int, tmp: str) -> dict:
    invs = workloads.invocations(workload, seed)
    paths = workloads.write_configs(invs, os.path.join(tmp, "configs"))
    out_dir = os.path.join(tmp, "out")
    result = {}
    for inv, path in zip(invs, paths):
        code = main([inv.command, "--config", path, "--quiet", "--out", out_dir])
        if inv.command == "check":
            problems = recompute_witnesses(path, inv.name, out_dir)
            if problems:
                sys.exit(f"{inv.name}: {problems}")
        result[inv.name] = outcome(inv.command, inv.name, code, out_dir)
    shutil.rmtree(tmp)
    return result


def record_all() -> None:
    tmp = os.path.join(ROOT, ".bench_tmp", f"record-{os.getpid()}")
    expected = {}
    for w in workloads.WORKLOADS:
        expected[w] = record(w, 0, tmp)
        if record(w, 1, tmp) != expected[w]:
            sys.exit(f"{w}: checked outcome depends on the workload seed")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    record_all()
