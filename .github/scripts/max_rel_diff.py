"""Differences between the numbers of two output files.

    python3 .github/scripts/max_rel_diff.py A B

Two equal numbers, or two NaNs, differ by 0; otherwise a and b differ by
|a - b| / max(|a|, |b|), and by inf where one is NaN or infinite.

When both files are JSON, their numbers are paired by path, such as
``checks[1].value``. The ``value`` and the ``errors`` of a check that has
a numeric ``tol`` differ by |a - b| / tol instead, so that a residual at
its rounding floor reads apart from a real change, and each of them that
differs is reported on a line of its own. Otherwise the numbers of each
file are read in order and paired up.

Prints how many of the other numbers differ and the largest difference,
or says that the files hold different counts (or paths) of numbers, or
that they differ outside them. When the other numbers of two JSON files
differ under more than one leaf key (the last key of the path, indices
stripped, such as ``distance``), a line per such key follows, largest
difference first, so that one key that moved far does not hide how far
the others moved.
"""

import json
import math
import re
import sys

NUMBER = re.compile(
    r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|infinity|inf)", re.IGNORECASE
)


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaves(node, path="", tol=None):
    """(path, number, tol) of every number of a parsed JSON document: tol is
    the ``tol`` of the check whose ``value`` or ``errors`` holds the number,
    else None."""
    if isinstance(node, dict):
        t = node.get("tol")
        t = float(t) if is_number(t) and 0 < t < math.inf else None
        for key, item in node.items():
            yield from leaves(item, f"{path}.{key}" if path else key,
                              t if key in ("value", "errors") else None)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from leaves(item, f"{path}[{i}]", tol)
    elif is_number(node):
        yield path, float(node), tol


def relative(a, b, scale=None):
    """|a - b| / scale, or / max(|a|, |b|) without one."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / (scale or max(abs(a), abs(b)))


def summary(diffs, what="numbers"):
    changed = sum(r > 0.0 for r in diffs)
    if not changed:
        return f"all {len(diffs)} {what} equal"
    return (f"{changed} of {len(diffs)} {what} differ, "
            f"largest relative difference {max(diffs):.2e}")


def leaf_key(path):
    """The last key of a path, indices stripped: ``rows[2].distance`` gives
    ``distance``."""
    return re.sub(r"\[\d+\]", "", path).rsplit(".", 1)[-1]


def compare_json(a, b):
    """The report lines of two parsed JSON documents."""
    a, b = ({path: (x, tol) for path, x, tol in leaves(doc)} for doc in (a, b))
    if a.keys() != b.keys():
        return [f"numbers at {len(a.keys() ^ b.keys())} paths are in one file only"]
    scaled, diffs, by_key = [], [], {}
    for path, (x, tol) in a.items():
        r = relative(x, b[path][0], tol)
        if tol is None:
            diffs.append(r)
            by_key.setdefault(leaf_key(path), []).append(r)
        elif r > 0.0:
            scaled.append(f"{path}: |a - b| / tol = {r:.2e} (tol {tol:g})")
    moved = sorted(((key, d) for key, d in by_key.items() if any(d)), key=lambda kd: -max(kd[1]))
    per_key = [f"{key}: {summary(d)}" for key, d in moved] if len(moved) > 1 else []
    if scaled:
        return [summary(diffs, "other numbers")] + per_key + scaled
    return [summary(diffs) + (", text differs" if not any(diffs) else "")] + per_key


def compare_text(a, b):
    """The report line of two texts whose numbers are paired in order."""
    a, b = ([float(t) for t in NUMBER.findall(text)] for text in (a, b))
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    diffs = [relative(x, y) for x, y in zip(a, b)]
    return summary(diffs) + (", text differs" if not any(diffs) else "")


def main(a_path, b_path):
    texts = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as f:
            texts.append(f.read())
    try:
        docs = [json.loads(text) for text in texts]
    except json.JSONDecodeError:
        return compare_text(*texts)
    return "\n".join(compare_json(*docs))


if __name__ == "__main__":
    print(main(*sys.argv[1:3]))
