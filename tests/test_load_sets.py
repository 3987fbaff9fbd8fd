"""Each command loads only the modules it runs.

The package has an algebra half (languages, monoids) and a laboratory
half (entailment, flowers, circuits). Every case spawns a fresh
interpreter, imports sigma2lab.cli, runs one command in it, and checks
which sigma2lab modules that process loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALGEBRA = {"languages", "monoids"}
LAB = {"entailment", "flowers", "circuits"}

# run the command given in argv, if any; print its exit code and the
# sigma2lab modules the process loaded
PROBE = """
import json, sys
import sigma2lab.cli
code = None
if sys.argv[1:]:
    from click.testing import CliRunner
    code = CliRunner().invoke(sigma2lab.cli.main, sys.argv[1:]).exit_code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("sigma2lab."))
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def _loaded(args: list[str]) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exit"] in (None, 0), result
    return set(result["loaded"])


# what importing sigma2lab.cli loads, and what each command adds to it;
# flowers packs its family with entailment's pack_family
CLI = {"cli", "blockwords", "errors", "reductions", "reports"}
COMMANDS = [
    (["analyze", "(ac*b+c)*", "--alphabet", "abc"], ALGEBRA),
    (["lab", "klimit", "--u", "abbbabbba", "--k", "1"], set()),
    (["lab", "flower", "--n", "9", "-p", "2"], {"flowers", "entailment"}),
    (["lab", "tangled", "--n", "9", "--k", "1"], {"entailment"}),
    (["lab", "dichotomy", "--n", "9", "--k", "1", "--samples", "2"], {"entailment"}),
    (["reduce", "expand", "--word", "abbbabbba"], {"languages"}),
    (["reduce", "wire", "--word", "abbbabbba"], ALGEBRA),
    (["reduce", "annotate", "--word", "abcabc", "--moduli", "2,3"], set()),
    (["circuit", "eval", "--word", "abbbabbba", "--fixture", "exact-good"], {"circuits"}),
    (
        ["circuit", "adversary", "--fixture", "block-selector", "--oracle", "entailment"],
        {"circuits", "entailment"},
    ),
    (
        ["circuit", "adversary", "--fixture", "block-selector", "--oracle", "flower"],
        {"circuits", "flowers", "entailment"},
    ),
]


def test_importing_the_cli_loads_no_algebra_or_lab_module():
    assert _loaded([]) == CLI


@pytest.mark.parametrize("args, extra", COMMANDS, ids=[" ".join(a[:2]) for a, _ in COMMANDS])
def test_each_command_loads_only_what_it_runs(args, extra):
    loaded = _loaded(args)
    assert loaded == CLI | extra
    if args[0] in ("lab", "circuit"):
        assert not loaded & ALGEBRA
    if args[0] == "analyze":
        assert not loaded & LAB
