#!/usr/bin/env python3
"""SHA-256 of every documented CLI and script output, computed in-process.

Runs a fixed list of `asymlp` invocations (`examples`, `report`, `check`,
`net`, `norm`) plus `scripts/reproduce_tables.py` and
`scripts/covering_growth.py`, and prints one line per captured stdout and
per `--out` file: the digest, the exit status and a label.  Two checkouts
produce the same lines exactly when their outputs are byte-identical:

    python3 scripts/output_digests.py > after.txt
    diff before.txt after.txt

The outputs are deterministic, so any difference is a changed result.  A
full run takes about half a minute.  ``--strip-key KEY`` digests every
``--out`` file with KEY removed from each JSON object, so two checkouts
that differ only in, say, the ``scan`` counters give the same lines.
"""
import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from asymlp import cli  # noqa: E402

DOCUMENTED = tuple(descriptor for descriptor, _ in cli._EXAMPLE_ROWS)

# (label, argv); "{out}" stands for a fresh output path
INVOCATIONS = (
    [("examples", ["examples"])]
    + [
        ("report v", ["report", "v:k=1..16,p=2", "--out", "{out}"]),
        ("report u",
         ["report", "u:k=1..64,p=1", "--eps", "0.5", "--eps", "0.25", "--out", "{out}"]),
    ]
    + [(f"check {d}", ["check", d, "--eps", "0.5", "--eps", "0.25", "--out", "{out}"])
       for d in DOCUMENTED]
    + [(f"net lift {d}", ["net", d, "--method", "truncation-lift", "--out", "{out}"])
       for d in DOCUMENTED]
    + [
        ("net g:k=1..256", ["net", "g:k=1..256,p=1", "--eps", "0.5", "--out", "{out}"]),
        ("norm v:k=1..64", ["norm", "v:k=1..64,p=2"]),
        ("check u shifts 1/49:16",
         ["check", "u:k=1..64,p=1", "--shifts", "1/49:16", "--out", "{out}"]),
    ]
)

SCRIPTS = ("reproduce_tables.py", "covering_growth.py")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _captured(fn) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = fn()
    return status, buf.getvalue().encode()


def _without(doc, key: str):
    if isinstance(doc, dict):
        return {k: _without(v, key) for k, v in doc.items() if k != key}
    if isinstance(doc, list):
        return [_without(v, key) for v in doc]
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strip-key", metavar="KEY",
                        help="drop KEY from every JSON object of the --out files")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, argv) in enumerate(INVOCATIONS):
            out = Path(tmp) / f"{i}.json"
            argv = [str(out) if arg == "{out}" else arg for arg in argv]
            # the printed "wrote PATH" line names the temporary file
            status, stdout = _captured(lambda: cli.main(argv))
            stdout = stdout.replace(str(out).encode(), b"OUT")
            print(f"{_digest(stdout)}  {status}  {label}: stdout")
            if out.exists():
                data = out.read_bytes()
                if args.strip_key:
                    doc = _without(json.loads(data), args.strip_key)
                    data = json.dumps(doc, indent=2).encode()
                print(f"{_digest(data)}  {status}  {label}: --out")
    for name in SCRIPTS:
        script_main = runpy.run_path(str(ROOT / "scripts" / name))["main"]
        status, stdout = _captured(lambda: script_main([]))
        print(f"{_digest(stdout)}  {status}  scripts/{name}: stdout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
