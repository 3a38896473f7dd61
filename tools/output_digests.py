"""Fingerprint the outputs of the coincide CLI, one line per request.

    python3 tools/output_digests.py [CONFIG.json ...] > digests.txt

Runs every gallery instance under `solve`, `solve --strict-h2` and
`compare`, then every config path given, under `compare` when the config's
"method" is "compare" and under `solve` otherwise (after a bench run, say,
`.bench_run/*/configs/*.json`); a "quadratic" config run under `solve` runs
under `compare` too, so that multi-d configs reach compare's array loop. Each request runs in its own process, on the
package in the src/ directory next to this tool, in a fresh directory that
holds only its config, as configs/<file name>, and its outputs, under out/.
A line reads

    <command> <config> exit=<code> io=<sha256 of stdout and stderr> <file>=<sha256> ...

with the output files in sorted order. Two runs on one checkout print the
same text, so a `diff` of the text that two checkouts print shows every
request whose exit code, console output or output files differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GALLERY_COMMANDS = (["solve"], ["solve", "--strict-h2"], ["compare"])


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    return env


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "coincide.cli", *args], cwd=cwd,
                          capture_output=True, env=_env())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(command: list[str], label: str, name: str, config: bytes) -> str:
    """Run `coincide <command> --config configs/<name> --out out` on config."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "configs").mkdir()
        (root / "configs" / name).write_bytes(config)
        proc = _cli([command[0], "--config", f"configs/{name}", "--out", "out",
                     *command[1:]], root)
        out = root / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        io = _sha(proc.stdout + b"\0" + proc.stderr)
        fields = [" ".join(command), label, f"exit={proc.returncode}", f"io={io}"]
        fields += [f"{p.relative_to(out).as_posix()}={_sha(p.read_bytes())}" for p in files]
    return " ".join(fields)


def gallery_configs() -> list[tuple[str, bytes]]:
    """(name, config bytes) of every gallery instance, as `gallery emit` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        names = _cli(["gallery", "list"], root).stdout.decode().split()
        made = []
        for name in names:
            _cli(["gallery", "emit", name, "--out", "configs"], root).check_returncode()
            made.append((name, (root / "configs" / f"{name}.json").read_bytes()))
    return made


def _commands_for(config: bytes) -> list[list[str]]:
    try:
        data = json.loads(config)
        method, kind = data.get("method"), data.get("kind")
    except (ValueError, AttributeError):
        method = kind = None
    if method == "compare":
        return [["compare"]]
    return [["solve"], ["compare"]] if kind == "quadratic" else [["solve"]]


def main(paths: list[str]) -> int:
    for name, config in gallery_configs():
        for command in GALLERY_COMMANDS:
            print(digest_line(command, f"gallery:{name}", f"{name}.json", config), flush=True)
    for path in paths:
        config = Path(path).read_bytes()
        for command in _commands_for(config):
            print(digest_line(command, path, Path(path).name, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
