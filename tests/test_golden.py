"""Golden CLI outputs: every invocation in golden/manifest.json must give
the recorded exit code and the recorded SHA-256 of its stdout and of every
file it writes.

The invocations run in-process, in manifest order, in one directory, so a
step can read the files that earlier steps wrote (`instance solve` reads
`instance gen`'s file, `report` reads the JSON-lines runs).  The
directory starts with a copy of golden/inputs/, hand-edited files that no
step can write (a family whose out_bits is not an integer, a copy count
t of 1.0, a family over one coordinate of a two-coordinate code, and a
negative field modulus in a code config, an instance and a family).  A digest
may change only with an intended output change; regenerate the manifest
with

    PYTHONPATH=src python tests/test_golden.py

or add invocations at its end, failing if any existing record changed, with

    PYTHONPATH=src python tests/test_golden.py --append "proto run --seed 4" ...
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from nullcode import cli

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
INPUTS = Path(__file__).parent / "golden" / "inputs"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(workdir: Path) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in workdir.iterdir() if p.is_file()}


def run_manifest(argvs, workdir: Path) -> list[dict]:
    """Run each argv through cli.main in workdir; one record per argv with
    its exit code, the digest of its stdout and of each file it wrote or
    changed."""
    for path in INPUTS.iterdir():
        shutil.copy(path, workdir)
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in argvs:
            before = _file_digests(workdir)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects an unknown flag
                    code = exc.code
            after = _file_digests(workdir)
            records.append(
                {
                    "argv": list(argv),
                    "exit": code,
                    "stdout": _sha256(out.getvalue().encode()),
                    "files": {
                        name: digest
                        for name, digest in sorted(after.items())
                        if before.get(name) != digest
                    },
                }
            )
    finally:
        os.chdir(cwd)
    return records


def _load_manifest() -> list[dict]:
    return json.loads(MANIFEST.read_text())["invocations"]


_EXPECTED = _load_manifest()


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    return run_manifest([rec["argv"] for rec in _EXPECTED], tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "index", range(len(_EXPECTED)), ids=[" ".join(rec["argv"]) for rec in _EXPECTED]
)
def test_golden_output(golden_runs, index):
    assert golden_runs[index] == _EXPECTED[index]


def test_manifest_covers_every_subcommand():
    # each subcommand runs one cli.cmd_<group>_<command> function
    commands = {name[4:].replace("_", " ") for name in dir(cli) if name.startswith("cmd_")}
    covered = {" ".join(rec["argv"][: 1 if rec["argv"][0] == "report" else 2]) for rec in _EXPECTED}
    assert commands == covered


def test_append_keeps_the_manifest_when_a_record_changed(tmp_path, monkeypatch, capsys):
    # two records that read no earlier step's files
    argvs = (["code", "dual", "--t", "2"], ["proto", "run", "--seed", "3"])
    records = [rec for rec in _EXPECTED if rec["argv"] in argvs]
    manifest = tmp_path / "manifest.json"
    monkeypatch.setattr(sys.modules[__name__], "MANIFEST", manifest)
    changed = [records[0], {**records[1], "stdout": "0" * 64}]
    manifest.write_text(json.dumps({"invocations": changed}))
    assert main(["--append", "proto run --seed 4"]) == 1
    assert capsys.readouterr().out == f"changed: {' '.join(records[1]['argv'])}\n"
    assert json.loads(manifest.read_text())["invocations"] == changed
    manifest.write_text(json.dumps({"invocations": records}))
    assert main(["--append", "proto run --seed 4"]) == 0
    written = json.loads(manifest.read_text())["invocations"]
    assert written[:2] == records and written[2]["argv"] == ["proto", "run", "--seed", "4"]


def main(argv=None) -> int:
    """Rewrite the manifest from a fresh run of its invocations; with
    --append, also run the given invocations (each one shell-quoted
    string) after them, and write the manifest only if no existing record
    changed.  Exits 1, naming the changed records, otherwise."""
    import argparse
    import shlex
    import tempfile

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--append", nargs="+", default=[], metavar="ARGV")
    args = parser.parse_args(argv)
    expected = _load_manifest()
    argvs = [rec["argv"] for rec in expected] + [shlex.split(a) for a in args.append]
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_manifest(argvs, Path(tmp))
    if args.append:
        changed = [" ".join(rec["argv"]) for rec, run in zip(expected, runs) if rec != run]
        if changed:
            for name in changed:
                print(f"changed: {name}")
            return 1
    MANIFEST.write_text(json.dumps({"invocations": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} invocations to {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
