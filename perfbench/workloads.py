"""The three workloads: their generated inputs, the CLI call of one
operation, and the checks every operation's outputs must pass.

Operation k uses pool entry k % pool, so a run of fewer than `pool`
operations never repeats an input. Key "warmup" names the extra input of the
untimed warm-up operation.
"""

from __future__ import annotations

import csv
import os

import numpy as np

import gen

TRAIN_SAMPLES = gen.TRAIN_FILES - 1        # one file is held out
TRAIN_SIDE = 64


def _remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Stylize:
    """`stylize` on distinct images; photoreal adds the graph-filter path."""

    def __init__(self, name: str, work: str, seed: int, golden=None):
        self.name, self.work, self.seed = name, work, seed
        self.photoreal = name == "photoreal"
        self.pool = gen.PHOTOREAL_POOL if self.photoreal else gen.ARTISTIC_POOL
        self.side = gen.PHOTOREAL_SIDE if self.photoreal else gen.ARTISTIC_SIDE
        self.golden = golden or {}
        self.golden_keys = (0, 1)       # one unmasked and one masked input
        self.model = os.path.join(work, "model.unrl")
        self.output = os.path.join(work, "out.ppm")
        self.pixels = {}

    def key(self, k: int):
        return k % self.pool

    def mpx(self) -> float:
        return self.side[0] * self.side[1] / 1e6

    def _path(self, key, kind):
        return os.path.join(self.work, f"{kind}_{key}.ppm")

    def _masked(self, key) -> bool:
        # every other operation (and the warm-up) runs the masked-Gram and
        # blend paths
        return self.photoreal and (key == "warmup" or key % 2 == 1)

    def build(self):
        from gradstyle.training import save_checkpoint
        save_checkpoint(gen.checkpoint_model(self.seed), self.model)
        h, w = self.side
        for key in list(range(self.pool)) + ["warmup"]:
            rng = (gen.rng_for(self.seed, "warmup") if key == "warmup"
                   else gen.rng_for(self.seed, self.name, key))
            img = gen.photo(rng, h, w)
            gen.write_ppm(self._path(key, "in"), img)
            self.pixels[key] = gen.to_bytes(img)
            if self._masked(key):
                gen.write_ppm(self._path(key, "cmask"), gen.binary_mask(rng, h, w))
                gen.write_ppm(self._path(key, "bmask"), gen.soft_mask(rng, h, w))

    def argv(self, key) -> list[str]:
        _remove(self.output, self.output + ".manifest")
        argv = ["stylize", "--model", self.model, "--input",
                self._path(key, "in"), "--output", self.output]
        if self.photoreal:
            argv += ["--photoreal", "--guided-filter"]
        if self._masked(key):
            argv += ["--content-mask", self._path(key, "cmask"),
                     "--blend-mask", self._path(key, "bmask")]
        return argv

    def result(self, key):
        """The sub-sampled output pixels the golden file stores."""
        return gen.read_ppm(self.output)[::2, ::2]

    def check(self, key, rc) -> str | None:
        """None when the outputs are right, else the reason they are not."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            out = gen.read_ppm(self.output)
        except (OSError, ValueError) as err:
            return f"output unreadable: {err}"
        inp = self.pixels[key]
        if out.shape != inp.shape:
            return f"output shape {out.shape} != input {inp.shape}"
        if not os.path.isfile(self.output + ".manifest"):
            return "no manifest written"
        if np.array_equal(out, inp):
            return "output identical to input"
        ref = self.golden.get(f"{self.name}.{key}")
        if ref is not None:
            diff = np.abs(out[::2, ::2].astype(int) - ref.astype(int)).max()
            if diff > 1:
                return f"output differs from golden by {diff} levels"
        return None


class Train:
    """`train --epochs 1` over a generated content directory."""

    name = "train"

    def __init__(self, name: str, work: str, seed: int, golden=None):
        self.work, self.seed = work, seed
        self.pool = gen.TRAIN_POOL
        self.golden = golden or {}
        self.golden_keys = tuple(range(self.pool))
        self.output = os.path.join(work, "out.unrl")

    def key(self, k: int):
        return k % self.pool

    def mpx(self) -> float:
        return TRAIN_SAMPLES * TRAIN_SIDE * TRAIN_SIDE / 1e6

    def _dir(self, key):
        return os.path.join(self.work, f"set_{key}")

    def build(self):
        h, w = gen.TRAIN_CONTENT
        for key in list(range(self.pool)) + ["warmup"]:
            rng = (gen.rng_for(self.seed, "warmup") if key == "warmup"
                   else gen.rng_for(self.seed, "train", key))
            contents = os.path.join(self._dir(key), "contents")
            os.makedirs(contents)
            for i in range(gen.TRAIN_FILES):
                gen.write_ppm(os.path.join(contents, f"c{i:02d}.ppm"),
                              gen.photo(rng, h, w))
            gen.write_ppm(os.path.join(self._dir(key), "style.ppm"),
                          gen.photo(rng, *gen.TRAIN_STYLE))

    def argv(self, key) -> list[str]:
        _remove(self.output, self.output + ".log.csv",
                self.output + ".manifest")
        return ["train", "--contents", os.path.join(self._dir(key), "contents"),
                "--style", os.path.join(self._dir(key), "style.ppm"),
                "--out", self.output, "--epochs", "1",
                "--size", str(TRAIN_SIDE), "--seed", str(self.seed)]

    def result(self, key):
        """Validation losses per epoch row: (epochs + 1, 4)."""
        with open(self.output + ".log.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([[float(v) for v in row[1:]] for row in rows])

    def check(self, key, rc) -> str | None:
        """None when the outputs are right, else the reason they are not."""
        from gradstyle.training import CheckpointError, load_checkpoint
        if rc != 0:
            return f"exit code {rc}"
        try:
            model = load_checkpoint(self.output)
            losses = self.result(key)
        except (OSError, ValueError, IndexError, CheckpointError) as err:
            return f"outputs unreadable: {err}"
        if model.n_styles != 1:
            return f"checkpoint has {model.n_styles} styles, expected 1"
        if losses.shape != (2, 4) or not np.all(np.isfinite(losses)):
            return f"training log is not 2 finite rows: {losses.tolist()}"
        ref = self.golden.get(f"train.{key}")
        if ref is not None and not np.allclose(losses, ref, rtol=TRAIN_RTOL,
                                               atol=0.0):
            return (f"validation losses {losses.tolist()} differ from golden "
                    f"{ref.tolist()} beyond rtol {TRAIN_RTOL}")
        return None


# relative tolerance on golden validation losses: far above BLAS summation
# order effects (~1e-12 after one epoch), far below any change to the maths
TRAIN_RTOL = 1e-6

WORKLOADS = {"artistic": Stylize, "photoreal": Stylize, "train": Train}
