"""Size of source trees: their lines, public names and modules.

    python3 .github/scripts/src_size.py head=src base=/tmp/base/src

Each argument is LABEL=DIR. The lines are every line of every ``*.py``
file under DIR, the public names the sum over those modules of the length
of their ``__all__`` (read without importing them), and the modules the
count of those files. Prints one Markdown table, a row per argument.
"""

import ast
import sys
from pathlib import Path


def size(root):
    """(lines, public names, modules) of the ``*.py`` files under root."""
    files = sorted(Path(root).rglob("*.py"))
    lines = names = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names += len(node.value.elts)
    return lines, names, len(files)


def main(args):
    print("| tree | lines | public names | modules |")
    print("| --- | ---: | ---: | ---: |")
    for arg in args:
        label, root = arg.split("=", 1)
        print("| {} | {} | {} | {} |".format(label, *size(root)))


if __name__ == "__main__":
    main(sys.argv[1:])
