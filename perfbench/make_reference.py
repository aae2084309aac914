"""Regenerate the correctness oracles in ``reference/`` from this checkout.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

Writes each figure's printed table (``<name>.txt``) and the fig6 seed-2018
rows as ``python -m repro figure fig6 --format json`` prints them.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH="src", REPRO_TSV_CACHE=cache)
        report = subprocess.run(
            [sys.executable, str(HERE / "figures.py")],
            env=env, check=True, stdout=subprocess.PIPE,
        ).stdout.decode().strip().splitlines()[-1]
        for entry in json.loads(report)["figures"]:
            (out_dir / f"{entry['name']}.txt").write_text(entry["table"])
        rows = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "fig6", "--format",
             "json"],
            env=env, check=True, stdout=subprocess.PIPE,
        ).stdout.decode()
    (out_dir / "fig6_seed2018.json").write_text(rows)
    print(f"wrote {sorted(p.name for p in out_dir.iterdir())}")


if __name__ == "__main__":
    main()
