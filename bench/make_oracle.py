"""Regenerate bench/oracle.json: NLS ground-state heights Q(0) from the
independent Radau oracle in tests/oracle.py.

Run from the repository root:

    python3 bench/make_oracle.py

The cold_solve workload checks every delta = 0 solve against
omega^{1/(p-1)} * Q(0) with these values.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from oracle import nls_height  # noqa: E402

#: (N, p) of every delta = 0 family drawn by the cold_solve workload
PAIRS = [(3, 3), (2, 3)]


def main() -> None:
    heights = {f"{n},{p}": nls_height(n, p) for n, p in PAIRS}
    payload = {"command": "python3 bench/make_oracle.py",
               "source": "tests/oracle.py:nls_height (Radau, rtol 1e-12, "
                         "bisection to 1e-13)",
               "q0": heights}
    out = Path(__file__).with_name("oracle.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(out.read_text(), end="")


if __name__ == "__main__":
    main()
