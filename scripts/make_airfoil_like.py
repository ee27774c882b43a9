#!/usr/bin/env python3
"""Write the bundled 5-feature heteroskedastic benchmark CSV.

1500 rows drawn with seed 815 (``airfoil_like_spec``'s defaults). The last
column is the response; feature 1 is the intended split pivot.
"""

import argparse
from pathlib import Path

from selreg.data import airfoil_like_spec, generate_synthetic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/airfoil_like.csv")
    args = parser.parse_args()

    ds = generate_synthetic(airfoil_like_spec())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = (",".join(format(v, ".17g") for v in [*row, y])
            for row, y in zip(ds.x, ds.y))
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {ds.n} rows x {ds.d + 1} columns to {out}")


if __name__ == "__main__":
    main()
