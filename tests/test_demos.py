"""Every walkthrough in demos/ runs to completion in a fresh interpreter, on
lrmt alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_exits_0(demo, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    if demo.stem == "01_autodiff_basics":
        # the tape is printed before backward() releases it
        for op in ("cross_entropy_masked", "decoder_sequence", "encoder_sequence"):
            assert op in done.stdout, (op, done.stdout[-2000:])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_nothing_from_tests(demo):
    # the test-side tape ops and oracles are no part of lrmt's API
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top not in ("tape_ops", "gradcheck") and not top.startswith("reference_"), \
                (demo.name, name)
