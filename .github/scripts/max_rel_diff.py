"""Largest relative difference between the numbers of two text files.

    python3 .github/scripts/max_rel_diff.py A B

Reads the numbers of each file in order and pairs them up. Two equal
numbers, or two NaNs, differ by 0; otherwise a and b differ by
|a - b| / max(|a|, |b|), and by inf where one is NaN or infinite. Prints
how many numbers differ and the largest difference, or says that the
files hold different counts of numbers, or that they differ outside them.
"""

import math
import re
import sys

NUMBER = re.compile(
    r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|infinity|inf)", re.IGNORECASE
)


def numbers(path):
    with open(path, encoding="utf-8") as f:
        return [float(token) for token in NUMBER.findall(f.read())]


def relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(a_path, b_path):
    a, b = numbers(a_path), numbers(b_path)
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    diffs = [relative(x, y) for x, y in zip(a, b)]
    changed = sum(r > 0.0 for r in diffs)
    if not changed:
        return f"all {len(a)} numbers equal, text differs"
    return f"{changed} of {len(a)} numbers differ, largest relative difference {max(diffs):.2e}"


if __name__ == "__main__":
    print(main(*sys.argv[1:3]))
