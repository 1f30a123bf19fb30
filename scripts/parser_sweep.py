"""Check that ``cli._parse_args`` exits, prints and returns what the whole
parser does, ``_build_parser().parse_args(argv)``, on every argv of up to
four words from a fixed pool of twenty: 168 421 argv.

Only the argument code of ``cli.py`` runs (its undecorated functions, ``SEED_ENV_VAR``
and ``_COMMANDS``), with the library stubbed, so the sweep needs no numpy
and runs on any Python from 3.10.  ``--reference`` takes the whole parser
from another ``cli.py``, such as an earlier revision's, whose
``_build_parser`` may take the argv too::

    git show <rev>:src/wigner_lab/cli.py > old_cli.py
    python scripts/parser_sweep.py --reference old_cli.py

Prints the count of argv checked and of those that differ, with the first
few of them; exits 1 if any differs.
"""

from __future__ import annotations

import __future__
import argparse
import ast
import contextlib
import dataclasses
import inspect
import io
import itertools
import math
import os
import types
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "wigner_lab" / "cli.py"
COMMANDS = ["states", "verify", "audit", "synth", "simulate", "table"]
# With the command names: the top level's words, then flags (abbreviated too) and values.
WORDS = COMMANDS + ["--", "-h", "--help", "bogus"]
WORDS += ["--format", "--form", "json", "-n", "5", "--pol", "uniform", "psi_AB", "--to-e0", "--bogus"]


@dataclasses.dataclass(frozen=True)
class MistakePolicy:
    """Stands in for ``montecarlo.MistakePolicy``: the same specs parse."""

    spec: str

    @classmethod
    def parse(cls, text: str) -> MistakePolicy:
        if text in ("correct", "uniform", "alternating") or text.startswith("biased:"):
            return cls(text)
        raise ValueError(f"bad policy spec {text!r}")


def argument_code(path: Path) -> dict:
    """The module namespace of ``path``'s undecorated functions, ``SEED_ENV_VAR`` and ``_COMMANDS``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = ("SEED_ENV_VAR", "_COMMANDS")
    kept = [
        node
        for node in tree.body
        if (isinstance(node, ast.FunctionDef) and not node.decorator_list)
        or (isinstance(node, ast.Assign) and any(getattr(target, "id", None) in names for target in node.targets))
    ]
    namespace = {
        "argparse": argparse,
        "math": math,
        "MistakePolicy": MistakePolicy,
        "SIGMA_BOUND": 4.0,
        "montecarlo": types.SimpleNamespace(MODES=("collapse", "analytic")),
        "protocol": types.SimpleNamespace(AUDIT_TOL=1e-9),
    }
    flags = __future__.annotations.compiler_flag  # annotations name library types
    exec(compile(ast.Module(body=kept, type_ignores=[]), str(path), "exec", flags=flags, dont_inherit=True), namespace)
    return namespace


def outcome(parse, argv: list[str]) -> tuple:
    """Exit code (None for a return), stdout, stderr and the namespace's items, handlers by name."""
    out, err = io.StringIO(), io.StringIO()
    items = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parse(list(argv)), None
        except SystemExit as exc:
            code = exc.code
        else:
            items = sorted((k, v.__name__ if callable(v) else v) for k, v in vars(args).items())
    return code, out.getvalue(), err.getvalue(), items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reference", type=Path, help="the cli.py whose whole parser is the reference")
    parser.add_argument("--words", type=int, default=4, help="the longest argv (default 4)")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # help and usage wrap the same for both
    new = argument_code(CLI)["_parse_args"]
    build = argument_code(args.reference or CLI)["_build_parser"]
    takes_argv = bool(inspect.signature(build).parameters)  # shaped by argv, as from c60b35f to 4cbd96e
    checked, differ = 0, []
    for length in range(args.words + 1):
        for words in itertools.product(WORDS, repeat=length):
            checked += 1
            if outcome(new, words) != outcome(lambda a: (build(a) if takes_argv else build()).parse_args(a), words):
                differ.append(words)
    print(f"{checked} argv checked, {len(differ)} differ")
    for words in differ[:10]:
        print("  " + " ".join(words))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
