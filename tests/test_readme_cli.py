"""The README's CLI examples print exactly the recorded JSON reports.

Each command runs in-process through ``cli.run``; its stdout is compared
byte for byte with the report stored in ``tests/data/readme_cli/``. The
counting and condensation checks also run as ``python -O -m tqdstab``
subprocesses, so their answers do not depend on ``assert``. To re-record
after an intended output change, write the new stdout over the matching
file and say why in the change's notes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tqdstab.cli import run

DATA = Path(__file__).resolve().parent / "data" / "readme_cli"

README_COMMANDS = [
    ("model_build", "model build --type ds --L 3"),
    ("verify_degeneracy", "verify degeneracy --type ds --L 3"),
    ("verify_condensation_equality",
     "verify condensation-equality --N 2 --n 1"),
    ("anyons_extract", "anyons extract --type ds"),
    ("theory_fusion_group",
     "theory fusion-group --N 2,2 --n 0,0 --nij 0,1,1"),
    ("kmatrix_census", "kmatrix census --N 2,2 --n 1,1 --nij 0,1,1"),
    ("spt_cocycle", "spt cocycle --ell 4"),
    ("appendixa_check", "appendixa check"),
]


@pytest.mark.parametrize("name,command", README_COMMANDS,
                         ids=[name for name, _ in README_COMMANDS])
def test_readme_command_output(capsys, name, command):
    code = run(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (DATA / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["verify_degeneracy",
                                  "verify_condensation_equality"])
def test_readme_check_under_optimize(name):
    command = dict(README_COMMANDS)[name]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-m", "tqdstab",
                          *command.split()], env=env, capture_output=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (DATA / f"{name}.json").read_bytes()


def test_every_readme_command_is_pinned():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {line.split("#")[0].split(None, 1)[1].strip()
              for line in readme.splitlines()
              if line.startswith("tqdstab ")}
    assert listed == {command for _, command in README_COMMANDS}
