"""Cold-start guard: the package's entry points load no optional SciPy.

``scipy.stats`` and ``scipy.optimize`` cost about a third of a second and
tens of MB of RSS to import, and only the Table 1 ECC math uses them, so
:mod:`repro.ecc.model` imports them inside the functions that need them.
A fresh interpreter imports every entry point and checks that neither
submodule was loaded, then runs the ECC math and checks it still returns
the pinned value.  The checks are structural; nothing is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = json.loads(Path(__file__).with_name("golden_ecc.json").read_text(encoding="utf-8"))

ENTRY_POINTS = (
    "repro",
    "repro.__main__",
    "repro.analysis.campaign",
    "repro.runner",
    "repro.service",
    "repro.lake",
)
LAZY = ("scipy.stats", "scipy.optimize")

SCRIPT = f"""
import importlib, json, sys
for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
loaded = [name for name in {LAZY!r} if name in sys.modules]
from repro.ecc.model import SECDED, tolerable_rber
print(json.dumps({{"loaded": loaded, "secded": repr(tolerable_rber(SECDED))}}))
"""


def test_entry_points_skip_optional_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == [], (
        f"importing the entry points loaded {result['loaded']}; import them "
        "inside the function that needs them"
    )
    assert result["secded"] == repr(GOLDEN["values"]["SECDED"]["1e-15"])
