#!/usr/bin/env python3
"""Generate a synthetic demo dataset: content images, a style, a held-out input.

Images are smooth random sinusoid mixtures written as binary PPM, so the demo
runs without any external data.
"""

import argparse
import os

import numpy as np

from gradstyle.imagecodec import write_ppm


def smooth(rng, side, waves=2.5):
    yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side),
                         indexing="ij")
    chans = []
    for _ in range(3):
        a, b = rng.uniform(0.5, waves, 2)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        chans.append(0.5 + 0.25 * np.sin(2 * np.pi * a * yy + p1)
                     + 0.2 * np.cos(2 * np.pi * b * xx + p2))
    return np.clip(np.stack(chans), 0.0, 1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_data")
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--side", type=int, default=64)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    contents = os.path.join(args.out, "contents")
    os.makedirs(contents, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        write_ppm(os.path.join(contents, f"content_{i:03d}.ppm"),
                  smooth(rng, args.side))
    write_ppm(os.path.join(args.out, "style.ppm"), smooth(rng, args.side, 5.0))
    write_ppm(os.path.join(args.out, "held_out.ppm"),
              smooth(np.random.default_rng(args.seed + 999), args.side))
    print(f"wrote {args.count} content images, style.ppm and held_out.ppm "
          f"under {args.out}/")


if __name__ == "__main__":
    main()
