"""Frozen outputs of every shipped config, run through the CLI entry point.

Each case pins the exit code, the sha256 of the report re-dumped with
indent=2 once `duration_seconds` (the one field allowed to vary) is
popped, and the sha256 of every CSV the run writes. The literals are
oracles recorded before any refactor of the package; a mismatch means a
verdict, witness, trace or report byte changed, and is never fixed by
re-recording.
"""
import hashlib
import json
import os

import pytest

from fixedlab import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

PINNED = [
    ("example1", "run", 0,
     "343557687cf260015ea535fb623b4df1d9b7f29fd0a97d7f6742f198f092a71a",
     {"example1_trace.csv":
      "c207a46b8880a8d396a6f812cec21d1015dcb5ebec12906fbdb4a851823b22da"}),
    ("example1_check", "check", 1,
     "c8f62794ae6d58a51ee15eed780c8edb7cbbda605b5d84f1bb50fbbb639492d0",
     {}),
    ("example1_sweep", "sweep", 1,
     "f7d081ca940f0294390d66e5e86efe374fc0f9dac814e59a3aed66a0d0354289",
     {"example1_sweep_sweep.csv":
      "3f2328c643d26da198c64a43c6ade1a239a042585239f7fa734bd9893fcecfd8"}),
    ("affine_contraction", "run", 0,
     "de759445b44b8260e6d9ebbf212c52cd9c829d81d58e908cbb5f4a344a3eaa32",
     {"affine_contraction_trace.csv":
      "056e4b4935a279842ac5b2b620cb9c81ab60d528b8407a5482711aa757449d4e"}),
    ("three_scalings", "run", 0,
     "dfaa08f433600f076d88e84a7352a3530c7a988459888d731f3e54858e955c1e",
     {"three_scalings_trace.csv":
      "9ba0fe4f2a677e881398e258db6d47190d44be638778080584b9391b35bf37ba"}),
    ("five_scalings_tent", "run", 0,
     "b869e2a84e3c1eef08fabc2d3f0718a467bba5e97570ed50a62eb1ec80854088",
     {"five_scalings_tent_trace.csv":
      "e1794007fa77d2fe529557b126a5d4a9969aaa5c9296663b252f1f53c444afff"}),
    ("truncated_family", "run", 0,
     "63682ecae69116d91f03f95ddfcf7be4ccc546a8cb7d89ac2e92be5fd23d74f0",
     {"truncated_family_trace.csv":
      "58fd5f0785427605e7316336c71f6a81a3e1d41246ff48d616e217d7006c070f"}),
    ("tent_schedule", "schedule", 0,
     "30249df4b96a77268857d0737c6c2aa6774ea27f2459b674d7684e5877372943",
     {}),
    ("constant_schedule", "schedule", 1,
     "e831226c3b9ed104f2b39aff77c4954845886d7d3063af6a5568317beecd7064",
     {}),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_shipped_config_is_pinned():
    shipped = sorted(f[:-5] for f in os.listdir(CONFIGS) if f.endswith(".json"))
    assert shipped == sorted(name for name, *_ in PINNED)


@pytest.mark.parametrize("name,command,code,report_sha,csv_shas", PINNED,
                         ids=[p[0] for p in PINNED])
def test_shipped_config_output_is_pinned(tmp_path, name, command, code,
                                         report_sha, csv_shas):
    config = os.path.join(CONFIGS, f"{name}.json")
    assert main([command, "--config", config, "--out", str(tmp_path),
                 "--quiet"]) == code
    report = json.loads((tmp_path / f"{name}_report.json").read_text())
    report.pop("duration_seconds")
    assert sha256(json.dumps(report, indent=2).encode()) == report_sha
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(csv_shas)
    for fname, digest in csv_shas.items():
        assert sha256((tmp_path / fname).read_bytes()) == digest, fname
