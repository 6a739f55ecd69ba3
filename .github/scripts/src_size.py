"""Size of source trees: their lines, public names and modules, and the
public functions no other code calls.

    python3 .github/scripts/src_size.py head=src base=/tmp/base/src

Each argument is LABEL=DIR; a malformed one is refused with a usage line
on stderr and exit code 2, before anything is printed. The lines are
every line of every ``*.py`` file under DIR, the public names the sum
over those modules of the length of their ``__all__`` (read without
importing them), and the modules the count of those files. A public
def is a name of a module's ``__all__`` bound by a top-level ``def``; it
counts as uncalled when no other module under DIR and no ``*.py`` file
under DIR's sibling ``demos`` or ``benchmark`` directories names it (as
a name, an attribute, an import or a string).
Prints one Markdown table, a row per argument, then each tree's uncalled
public defs.
"""

import ast
import sys
from pathlib import Path


def _named(tree):
    """Every identifier the parsed module ``tree`` uses as a name, an
    attribute, an imported name or a string (as the benchmark's tracer
    names the functions it wraps)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                node.value.isidentifier():
            out.add(node.value)
    return out


def size(root):
    """(lines, public names, modules, uncalled public defs) of the ``*.py``
    files under root; the last as sorted ``module.name`` strings."""
    root = Path(root)
    files = sorted(root.rglob("*.py"))
    lines = names = 0
    named, public_defs = {}, {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        tree = ast.parse(text)
        named[path] = _named(tree)
        defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names += len(node.value.elts)
                public_defs[path] = {e.value for e in node.value.elts} & defs
    users = [p for d in ("demos", "benchmark") for p in (root.parent / d).rglob("*.py")]
    outside = set().union(*(_named(ast.parse(p.read_text(encoding="utf-8"))) for p in users))
    uncalled = [f"{path.stem}.{name}" for path, defs in public_defs.items()
                for name in defs - outside.union(*(n for p, n in named.items() if p != path))]
    return lines, names, len(files), sorted(uncalled)


def main(args):
    trees = [arg.split("=", 1) for arg in args]
    if any(len(tree) != 2 or not all(tree) for tree in trees):
        print("usage: src_size.py LABEL=DIR [LABEL=DIR ...]", file=sys.stderr)
        return 2
    print("| tree | lines | public names | modules | uncalled public defs |")
    print("| --- | ---: | ---: | ---: | ---: |")
    listed = []
    for label, root in trees:
        lines, names, modules, uncalled = size(root)
        print(f"| {label} | {lines} | {names} | {modules} | {len(uncalled)} |")
        listed.append((label, uncalled))
    for label, uncalled in listed:
        if uncalled:
            print(f"\n{label}: " + ", ".join(f"`{name}`" for name in uncalled))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
