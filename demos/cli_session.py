"""The JSON-config command line, driven end to end from Python.

Run:  python3 demos/cli_session.py

Equivalent shell commands are printed before each call; everything the CLI
writes (JSON report, trace CSV, sweep table) lands in a temporary
directory that is listed at the end and then removed. Exit codes: 0 all
good, 1 a check or compliance verdict failed, 2 unusable config, 3 the
iteration broke down.
"""
import json
import os
import tempfile

from fixedlab import main as fixedlab_main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run(argv):
    print(f"$ fixedlab {' '.join(argv)}")
    code = fixedlab_main(argv)
    print(f"  -> exit code {code}\n")
    return code


def main():
    with tempfile.TemporaryDirectory(prefix="fixedlab_demo_") as out:
        run(["run", "--config", os.path.join(CONFIGS, "example1.json"),
             "--out", out])
        run(["check", "--config", os.path.join(CONFIGS, "example1_check.json"),
             "--out", out])        # exits 1: the step map is not nonexpansive
        run(["schedule", "--config", os.path.join(CONFIGS, "tent_schedule.json"),
             "--out", out])
        run(["sweep", "--config", os.path.join(CONFIGS, "example1_sweep.json"),
             "--out", out])        # exits 1: two diagonal cells fail

        print(f"artifacts in {out} (removed when the demo ends):")
        for name in sorted(os.listdir(out)):
            print(f"  {name}")

        report_path = os.path.join(out, "example1_report.json")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    print(f"\nreplaying a report's embedded config reproduces it byte for")
    print(f"byte; from {os.path.basename(report_path)}:")
    print(f"  engine={report['engine']} stop={report['summary']['stop_reason']}"
          f" final_x={report['summary']['final_x']}")


if __name__ == "__main__":
    main()
