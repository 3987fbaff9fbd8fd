"""Record the stdout digest and exit code of every command cli-cold can draw.

    python3 perfbench/record_cli.py

Rewrites perfbench/expected/cli_cold.json from the sources in this
checkout. Run it only at a commit whose CLI output is the reference:
cli-cold fails any later command whose bytes or exit code differ.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.paths import use_checkout_source  # noqa: E402


def main() -> int:
    use_checkout_source()
    from perfbench.workloads import CLI_MIX, EXPECTED_CLI, cli_env, cli_key, run_cli_process

    env = cli_env()
    expected = {}
    for variants in CLI_MIX:
        for args in variants:
            code, out, _ = run_cli_process(args, env)
            expected[cli_key(args)] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
            print(f"{code} {len(out):6d} {' '.join(args)}")
    EXPECTED_CLI.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
