"""Drive the command-line front end from a config string.

The CLI accepts an INI file naming either a built-in problem or a custom
one written with the small expression language, runs the requested checks,
and writes deterministic CSV/JSON outputs plus a manifest.
"""

import json
import pathlib
import tempfile

from isaacs.cli import parse_config, run

CONFIG = """
[problem]
name = custom
horizon = 0.5
b = 0
sigma = 1
driver = 0
terminal = max(0, 1 - abs(x))
lower = 0 - 2
upper = 2
controls_i = 0
controls_ii = 0
lipschitz = 1
driver_lipschitz = 0

[grid]
x_min = -4
x_max = 4
nx = 81
nt = 100

[run]
checks = validate, game_value
seed = 7
"""

config = parse_config(CONFIG)
with tempfile.TemporaryDirectory(prefix="isaacs_demo_") as tmp:
    out = pathlib.Path(tmp)
    manifest = run(config, str(out), seed=config.seed, checks=config.checks, quiet=True)

    print(f"all checks passed: {manifest.all_passed} ({manifest.wall_clock_s:.2f} s)")
    print(f"outputs in {out}:")
    for name in sorted(p.name for p in out.iterdir()):
        print(f"  {name}")

    print()
    verdict = json.loads((out / "verdict.json").read_text())
for check, entry in verdict.items():
    print(f"{check}: {entry}")
