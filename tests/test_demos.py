"""Every demo script runs to completion in a fresh interpreter.

Each prints the bytes recorded in STDOUT_SHA256, so a change that moves
any demo's output shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_classify_block_language": "45f6fe135d2b3adb37bd8a1792a22fad3fc51b615dd2e60da1ecfd0d82b3833d",
    "02_limits_and_flowers": "f933a36def5c85ba45a06c84a93e1a42135477469a0143747a6db35740749189",
    "03_tangled_or_limit": "1702a5e1a058ae4658457ab5ddb4e353aa41452bc0d6471870cec8980a2691a9",
    "04_wiring_words_into_monoids": "611b14e0718f34296f01c9efe0aa2fa63bdacb496951725159765737b9afac7a",
    "05_circuit_adversary": "a19ffa680a0e297d180a606abdddb984630f4145dacc95aebbaa7ebdb2df393f",
}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
