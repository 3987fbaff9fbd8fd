"""Where the program under test lives, relative to this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sigma2lab"


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 if it is missing.

    The benchmark builds nothing: it measures the source tree next to it.
    An installed sigma2lab elsewhere must never stand in for it.
    """
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sigma2lab sources under {PACKAGE}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sigma2lab

    if Path(sigma2lab.__file__).resolve().parent != PACKAGE.resolve():
        sys.stderr.write(f"perfbench: sigma2lab imported from {sigma2lab.__file__}\n")
        sys.exit(2)
