#!/usr/bin/env python3
"""Seeded mutation sampler: how many small faults in one module do the tests catch?

    python scripts/mutation_sample.py noise

Lists the mutation points of src/spikecam/<module>.py: arithmetic
operators, comparisons, shifts and integer constants, outside type
annotations (which `from __future__ import annotations` never
evaluates).  A fixed sample of them (20, drawn with seed 0, so kill
counts compare across changes) is applied one at a time to a copy of
the repository in a temporary directory; the working tree is never
edited.  For each mutant, tests/test_<module>.py and tests/test_golden.py
run with -x.  A mutant they pass survives, and is printed with its line.

The unmutated module, passed through the same ast.unparse as every
mutant so that the two differ only by the mutation, is tested first.
Tests that fail there are named in the report and deselected from every
mutant's run, so a mutant is killed only when a test that passed
unmutated fails.  If pytest cannot run the unmutated tests, or none of
them passes, no mutant is run.  A mutant that runs ten times longer than the unmutated tests
did (at least a minute) is stopped and counted as killed.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_COUNT = 20
_SEED = 0

# operator type -> the type it is replaced with
_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an argument, return or variable annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _points(tree: ast.AST) -> list[tuple[int, int, int, str]]:
    """(line, walk index, operand index, description) of every mutation point."""
    skip = _annotation_nodes(tree)
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            old = type(node.op)
            desc = f"{_SYMBOLS[old]} -> {_SYMBOLS[_SWAPS[old]]} in {ast.unparse(node)}"
            found.append((node.lineno, i, 0, desc))
        elif isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    desc = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]} in {ast.unparse(node)}"
                    found.append((node.lineno, i, j, desc))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node.lineno, i, 0, f"{node.value} -> {node.value + 1}"))
    return found


def _mutant(source: str, index: int, operand: int) -> str:
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[operand] = _SWAPS[type(node.ops[operand])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPS[type(node.op)]()
    return ast.unparse(tree)


def _pytest(repo: Path, args: list[str], timeout: float | None = None):
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(
        cmd, cwd=repo, env=env, timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def _baseline_failures(repo: Path, tests: list[str]) -> list[str] | None:
    """Node ids of the tests that fail unmutated; None if pytest could not
    run them or none of them passed."""
    done = _pytest(repo, ["-rfE", *tests])
    # exit code 1 means some tests failed; any other but 0 gives no verdict
    if done.returncode not in (0, 1) or not re.search(r"\b\d+ passed\b", done.stdout):
        return None
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def _run_tests(repo: Path, tests: list[str], timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for one pytest run in the copy."""
    try:
        done = _pytest(repo, ["-x", *tests], timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module name under src/spikecam, such as noise")
    args = parser.parse_args(argv)

    rel = Path("src", "spikecam", f"{args.module}.py")
    tests = [f"tests/test_{args.module}.py", "tests/test_golden.py"]
    for path in (rel, *map(Path, tests)):
        if not (ROOT / path).is_file():
            parser.error(f"{path} does not exist")
    source = (ROOT / rel).read_text()
    points = _points(ast.parse(source))
    sample = sorted(random.Random(_SEED).sample(points, min(_COUNT, len(points))))
    print(f"{rel}: {len(points)} mutation points, {len(sample)} sampled with seed {_SEED}")

    lines = source.splitlines()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, repo,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        (repo / rel).write_text(ast.unparse(ast.parse(source)))
        start = time.monotonic()
        failing = _baseline_failures(repo, tests)
        if failing is None:
            print("no unmutated test passes; no mutant was run", file=sys.stderr)
            return 2
        timeout = max(60.0, 10.0 * (time.monotonic() - start))
        for node in failing:
            print(f"fails unmutated, left out of every mutant's run: {node}", flush=True)
        tests = [*tests, *(f"--deselect={node}" for node in failing)]
        for line, index, operand, desc in sample:
            (repo / rel).write_text(_mutant(source, index, operand))
            outcome = _run_tests(repo, tests, timeout)
            if outcome == "pass":
                survivors += 1
                print(f"SURVIVED line {line}: {desc}\n    {lines[line - 1].strip()}", flush=True)
            else:
                print(f"killed ({outcome}) line {line}: {desc}", flush=True)
    print(f"{rel}: {len(sample) - survivors} of {len(sample)} mutants killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
