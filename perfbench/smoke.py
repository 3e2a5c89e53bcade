"""README smoke listing: run each CLI example of README.md once, verbatim.

Untimed and in no metric.  Each example's exit code is reported, and its
stdout is compared with the seed commit's, stored in ``golden/readme.json``
(an example with no stored output is reported as new).
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme.json"


def readme_commands(text: str) -> list[list[str]]:
    """argv of every ``bbl ...`` line of the ``sh`` blocks after '## CLI', continuations joined."""
    commands, in_cli, in_block, pending = [], False, False, ""
    for line in text.splitlines():
        if line.startswith("## "):
            in_cli = line.strip() == "## CLI"
        elif in_cli and line.startswith("```"):
            in_block = not in_block
        elif in_block:
            pending += line.split(" #")[0].rstrip() if not line.lstrip().startswith("#") else ""
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            if pending.strip().startswith("bbl "):
                commands.append(shlex.split(pending)[1:])
            pending = ""
    return commands


def run_example(root: Path, argv: list[str]) -> tuple[int, str]:
    env = {k: v for k, v in os.environ.items() if k != "BBL_QUAD_TOL"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-m", "bbl.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def readme_examples(root: Path) -> list[str]:
    readme = root / "README.md"
    if not readme.is_file():
        return ["smoke: README.md not found"]
    golden = {json.dumps(g["argv"]): g for g in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    lines = []
    for argv in readme_commands(readme.read_text(encoding="utf-8")):
        code, out = run_example(root, argv)
        seed = golden.get(json.dumps(argv))
        if seed is None:
            against = "new example"
        else:
            same = "same stdout" if out == seed["stdout"] else "stdout differs"
            against = f"seed exit {seed['exit']}, {same}"
        lines.append(f"smoke: exit {code} ({against}): bbl {shlex.join(argv)}")
    return lines
