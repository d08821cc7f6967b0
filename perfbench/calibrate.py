"""Fixed reference program that measures how fast the host runs Python now.

It does a fixed amount of the two kinds of work the CLI does: format and
parse CSV text, sort records and encode indented JSON; then enumerate
combinations and permutations of small tuples with float arithmetic and
string rendering.  It never imports linematch, so its time moves with the
host's speed and never with the program under test.  run.py times it in a
fresh interpreter before and after every op.
"""

import csv
import io
import json
import random
from itertools import combinations, permutations


def records(rng: random.Random) -> None:
    text = "".join(f"r{i},{rng.random()!r}\n" for i in range(8000))
    rows = [(float(s), i, name) for i, (name, s) in
            enumerate(csv.reader(io.StringIO(text)))]
    rows.sort()
    json.dumps([{"id": name, "score": s, "rank": i} for s, i, name in rows],
               indent=2)


def enumeration(rng: random.Random) -> None:
    xs = sorted(rng.random() for _ in range(24))
    best = None
    for combo in combinations(range(24), 4):
        vals = [xs[i] for i in combo]
        cost = sum(abs(a - b) for a, b in combinations(vals, 2))
        if best is None or cost < best:
            best = cost
    "\n".join("{" + ",".join(map(str, perm)) + "}" for perm in permutations(range(8)))


if __name__ == "__main__":
    rng = random.Random(1805)
    records(rng)
    enumeration(rng)
