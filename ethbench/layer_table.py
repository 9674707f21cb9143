#!/usr/bin/env python3
"""Render traced runs (`--trace 1` JSON result lines) as a markdown table.

Each argument is `workload=path`, where the file's last line is the
benchmark's JSON result. Every `<kind>.self_s` row also shows the kind's
share of the summed handler self time.

    python3 ethbench/layer_table.py paper_small=a.json block_race=b.json
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])["metrics"]


def main():
    runs = [(arg.split("=", 1)[0], load(arg.split("=", 1)[1])) for arg in sys.argv[1:]]
    names = list(runs[0][1])
    shares = []
    for _, m in runs:
        total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        shares.append(total)
    head = "| metric | unit | " + " | ".join(w for w, _ in runs) + " |"
    print(head)
    print("|" + "---|" * (2 + len(runs)))
    for name in names:
        cells = []
        for (_, m), total in zip(runs, shares):
            v = m[name]["value"]
            cell = f"{v:.6g}"
            if name.endswith(".self_s") and total > 0:
                cell += f" ({100 * v / total:.1f}%)"
            cells.append(cell)
        print(f"| `{name}` | {runs[0][1][name]['unit']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
