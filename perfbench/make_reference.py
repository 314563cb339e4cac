#!/usr/bin/env python3
"""Write reference/figures.json: the crossings `dwcross detect` finds on
the four figure presets, with the tolerances the figures workload allows.

    python3 perfbench/make_reference.py

Run it only to record a deliberate change of the crossings.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dwcross import cli  # noqa: E402

import workloads  # noqa: E402

# lambda* may move by this share of the sweep window (golden-section search
# stops at 1e-5 of it); the refined gap by this relative amount.
LAMBDA_TOL_FRACTION = 1e-4
GAP_REL_TOL = 1e-4


def main() -> int:
    presets = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for preset in workloads.PRESETS:
            out = Path(tmp) / f"{preset}.csv"
            code = cli.main(["detect", "--preset", preset, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"detect --preset {preset} exited {code}")
            cfg = workloads.preset_config(preset)
            presets[preset] = {
                "lambda_tol": LAMBDA_TOL_FRACTION * (cfg.lambda_max - cfg.lambda_min),
                "crossings": workloads.read_crossings(out.read_text(encoding="utf-8")),
            }
    lines = ["{", f' "gap_rel_tol": {GAP_REL_TOL},', ' "presets": {']
    for i, (preset, ref) in enumerate(presets.items()):
        rows = ",\n".join(f"    {json.dumps(row)}" for row in ref["crossings"])
        comma = "," if i + 1 < len(presets) else ""
        lines.append(f'  "{preset}": {{"lambda_tol": {ref["lambda_tol"]!r}, "crossings": [')
        lines.append(rows)
        lines.append(f"  ]}}{comma}")
    lines += [" }", "}"]
    text = "\n".join(lines) + "\n"
    json.loads(text)
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
