"""The benchmark's sweep workloads.

Each is a seeded synthetic dataset plus the architectures a user would
sweep on it with ``tsclab train``.  Epoch counts are cut far below the
published ones so that a whole sweep fits in one run; ``batch`` is the
``--batch`` override.  The batch-normalized nets (fcn, resnet) train at
batch 4: their inference uses running statistics that need about 40
optimizer steps to settle, and at batch 16 that would cost ten epochs.
tlenet trains at batch 64: at its published 256 its pool of about 1300
slices gives five steps an epoch, too few to learn in five epochs.

twiesn and tlenet run on ucr-conv, where the conv nets set time and memory.
twiesn's grid search picks a reservoir of 32 to 256 units depending on the
data, and beside the small multivariate nets that choice alone moved peak
memory by 45% and prediction time threefold between seeds.  tlenet's
per-series voting makes hundreds of small forward calls; on the two-thread
mts-dense sweep it tripled the spread of the prediction rate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Arch:
    name: str
    runs: int                 # seeds 0 .. runs-1
    epochs: int | None = None  # None: not gradient-trained (twiesn)
    batch: int | None = None   # None: the published batch size


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str          # "ucr" text or "long" multivariate CSV
    n_train: int
    n_test: int
    length: int
    dims: int
    classes: int
    noise: float
    archs: tuple
    jobs: int = 1

    @property
    def gap_arch(self) -> str | None:
        """First GAP-headed architecture, the one CAM and MDS run on."""
        return next((a.name for a in self.archs if a.name in ("fcn", "resnet")), None)


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists is in BENCHMARK.json
        Workload(
            "ucr-conv", "ucr", 50, 150, 150, 1, 2, 0.3,
            (Arch("fcn", 2, 4, 4), Arch("resnet", 1, 4, 4), Arch("encoder", 1, 3),
             Arch("tlenet", 2, 5, 64), Arch("twiesn", 1)),
        ),
        Workload(
            "mts-dense", "long", 120, 120, 100, 3, 3, 0.6,
            (Arch("mlp", 2, 10), Arch("mcdcnn", 2, 10), Arch("timecnn", 2, 20)),
            jobs=2,
        ),
    )
}
