#!/usr/bin/env python3
"""Desk-scale end-to-end experiment: train, stylize, restructure, compare.

Steps:
  1. generate synthetic data (unless --data points at an existing set)
  2. train a 1-style model for a couple of epochs
  3. stylize the held-out image artistically, photorealistically, and at a
     couple of intensities
  4. dump the descent-vs-network loss comparison CSV and print k*, the
     first descent iteration whose total is at or below the network's

Everything lands under --workdir; each command writes its manifest next to
its output, so the whole run can be replayed bit for bit.
"""

import argparse
import csv
import os
import subprocess
import sys

from gradstyle.cli import main as gradstyle_main


def run(argv):
    print("+ gradstyle " + " ".join(argv))
    code = gradstyle_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="desk_run")
    ap.add_argument("--data", default=None,
                    help="existing demo-data directory (default: generate)")
    ap.add_argument("--epochs", type=int, default=2)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    data = args.data or os.path.join(args.workdir, "data")
    if args.data is None:
        subprocess.run([sys.executable,
                        os.path.join(os.path.dirname(__file__),
                                     "make_demo_data.py"),
                        "--out", data, "--side", str(args.size)], check=True)

    ckpt = os.path.join(args.workdir, "model.ckpt")
    run(["train", "--contents", os.path.join(data, "contents"),
         "--style", os.path.join(data, "style.ppm"), "--out", ckpt,
         "--epochs", str(args.epochs), "--size", str(args.size),
         "--seed", str(args.seed)])

    with open(ckpt + ".log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print("validation loss per epoch:")
    for row in rows:
        print(f"  epoch {row['epoch']}: {float(row['val_total']):.6f}")

    held = os.path.join(data, "held_out.ppm")
    run(["inspect", "--model", ckpt])
    run(["stylize", "--model", ckpt, "--input", held,
         "--output", os.path.join(args.workdir, "artistic.ppm")])
    run(["stylize", "--model", ckpt, "--input", held,
         "--output", os.path.join(args.workdir, "photoreal.ppm"),
         "--photoreal", "--guided-filter"])
    for alpha in ("0.6", "1.4"):
        run(["stylize", "--model", ckpt, "--input", held,
             "--output", os.path.join(args.workdir, f"alpha_{alpha}.ppm"),
             "--alpha", alpha])

    cmp_csv = os.path.join(args.workdir, "compare.csv")
    run(["compare", "--model", ckpt, "--input", held, "--style-id", "0",
         "--iters", "10", "--init", "content", "--out", cmp_csv])
    with open(cmp_csv, newline="") as fh:
        crows = list(csv.DictReader(fh))
    net = [r for r in crows if r["method"] == "network"][0]
    last_gd = [r for r in crows if r["method"] == "gd"][-1]
    print(f"network loss {float(net['total']):.5f} vs gd@{last_gd['iter']} "
          f"{float(last_gd['total']):.5f}")
    # k*: the first GD iteration whose total is at or below the network's
    k_star = next((r["iter"] for r in crows if r["method"] == "gd"
                   and float(r["total"]) <= float(net["total"])), None)
    print(f"k* = {k_star}" if k_star is not None
          else f"k* > {last_gd['iter']}")
    print(f"outputs in {args.workdir}/")


if __name__ == "__main__":
    main()
