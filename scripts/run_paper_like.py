#!/usr/bin/env python3
"""Full-scale sweep on the 10x10 coarse grid with 24 random inclusions.

This reproduces the benchmark protocol end to end (three Darcy numbers,
M = 5..25, with and without oversampling).  One Darcy value took 100 s
with a cold basis cache and one thread on a 2-core Intel Xeon VM, so the
sweep takes about 5 minutes.  The offline bases are cached under
results/paper_like/basis_cache, so reruns after an interruption skip
completed offline work.  MSFLOW_THREADS parallelizes the per-cell local
solves.
"""

import pathlib
import sys

from msflow.cli import main

HERE = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    config = HERE / "configs" / "paper_like.cfg"
    sys.exit(main(["sweep", "--config", str(config), *sys.argv[1:]]))
