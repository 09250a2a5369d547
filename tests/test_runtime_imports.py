"""foldcc runs on the standard library alone: every absolute import in
the package names a standard-library module.  A CLI command imports only
the foldcc modules it runs."""

import ast
import os
import subprocess
import sys

import pytest

import foldcc
from foldcc.core import serialize_complex
from foldcc.generators import torus_grid

PACKAGE = os.path.dirname(foldcc.__file__)


def absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_every_absolute_import_is_stdlib():
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "core.py" in sources
    for name in sources:
        for module in absolute_imports(os.path.join(PACKAGE, name)):
            assert module.partition(".")[0] in sys.stdlib_module_names, (
                name, module)


# Each process compiles every module it imports when no bytecode is
# written, so a command should import only the modules it runs.
PROBE = """
import sys
from foldcc import cli
code = cli.main(sys.argv[1:])
sys.stderr.write("%d %s" % (code, " ".join(
    sorted(m for m in sys.modules if m.startswith("foldcc.")))))
"""


@pytest.mark.parametrize("argv, imported, skipped", [
    (["decompose", "--color", "1"], {"foldcc.decomposition"},
     {"foldcc.rank", "foldcc.geodesic"}),
    (["rank"], {"foldcc.rank"}, {"foldcc.decomposition"}),
    (["rank", "--diagnostics"], {"foldcc.rank", "foldcc.decomposition"},
     set()),
], ids=["decompose", "rank", "rank-diagnostics"])
def test_commands_import_only_what_they_run(argv, imported, skipped,
                                            tmp_path):
    path = tmp_path / "t.cplx"
    path.write_text(serialize_complex(torus_grid((4, 4, 4))))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    done = subprocess.run([sys.executable, "-c", PROBE, argv[0], str(path)]
                          + argv[1:], env=env, capture_output=True,
                          text=True, timeout=120)
    code, _, modules = done.stderr.partition(" ")
    modules = set(modules.split())
    assert code == "0", done.stderr
    assert imported <= modules
    assert not skipped & modules
