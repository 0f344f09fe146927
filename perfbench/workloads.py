"""Benchmark workloads. Each is a generator of cycles, a cycle being the
list of eigenuq commands ("ops") a run issues in order.

Every cycle holds the same ops; the repeats are what the
byte-identical-rerun check compares. Output directories are named by op
label, so an op's outputs (report's summary lists run names) do not
depend on where a run keeps them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SMALL_GRID_INI = str(Path(__file__).with_name("uq-small-grid.ini"))


@dataclass(frozen=True)
class Op:
    label: str  # unique within a cycle; the name of its output directory
    # eigenuq.cli arguments, without --out; "{cycle}" stands for the
    # directory that holds this cycle's op outputs
    argv: tuple
    inputs: tuple = ()  # labels of earlier ops whose outputs are arguments

    @property
    def command(self):
        return self.argv[0]


def envelope_datafree(seed):
    """Data-free three-corner envelope at Re_tau 180.

    The solver's iteration count and the in-loop stress algebra do
    almost all the work. The command has no random input, so the seed
    does not change it. delta_b = 1.0 is the setting that shows the
    stress-freeze defect in stress_consistency_max.
    """
    op = Op("uq-datafree", ("uq", "--mode", "datafree", "--delta-b", "1.0",
                            "--re-tau", "180"))
    while True:
        yield [op]


def pipeline_mix(seed):
    """Short commands in a seeded order, then a data-driven uq and a
    report over all of their runs.

    Output, scalar tensors/dns work, forest fitting and per-op set-up
    carry a large share here; features are built once per baseline and
    the forest is fitted and saved, not queried per iteration. The seed
    sets the order of each cycle and nothing else: the commands keep
    their configured forest and noise seeds (0), because the forest and
    the noise change how many iterations a solve takes, and that would
    make the cost of a run depend on the seed.

    The uq op is the data-driven envelope (uq --mode pcorr_angles at
    Re_tau 180) on the 32-cell grid of uq-small-grid.ini, with the forest
    the cycle's pcorr_angles training wrote. It is the only op that
    loads a forest and queries it every iteration, calls
    project_points/rotation_stack, and repeats the corner-free solve
    three times. Whether that solve converges in about 300 iterations or
    cycles until the 3,000-iteration stress freeze depends on the
    forest; the fixed forest keeps the op the same in every run.

    The baselines, one at each Re_tau the forests are trained or held
    out at, are half of a cycle's ten ops, so the median op is a
    baseline and a run samples that kind at least ten times. With one
    op of the median's kind per cycle, the median of its three or four
    times followed the host's speed from second to second (see
    README.md).
    """
    runs = [
        *(Op(f"baseline-{re_tau}", ("baseline", "--re-tau", re_tau))
          for re_tau in ("180", "550", "1000", "2000", "5200")),
        Op("train-p", ("train", "--target", "p")),
        Op("train-pcorr_angles", ("train", "--target", "pcorr_angles")),
        Op("propagate-1000", ("propagate-dns", "--re-tau", "1000", "--noise", "0.02")),
    ]
    uq = Op("uq-pcorr_angles", (
        "uq", "--mode", "pcorr_angles", "--re-tau", "180", "--config", SMALL_GRID_INI,
        "--forest", "{cycle}/train-pcorr_angles/forest_pcorr_angles.json"))
    report = Op("report", ("report",), tuple(op.label for op in runs + [uq]))
    rng = random.Random(seed)
    while True:
        yield rng.sample(runs, len(runs)) + [uq, report]


WORKLOADS = {
    "envelope-datafree": envelope_datafree,
    "pipeline-mix": pipeline_mix,
}
