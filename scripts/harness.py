"""The set-up that the desk probes (operator_digest.py, solve_paths.py and
memory_stages.py) share.

Importing it pins every thread pool to one thread and turns numpy's hugepage
advice off, with perfbench/run.py's PINNED_ENV, so a probe imports it before
numpy: the digests, the solve counts and the memory stages move with the
BLAS thread count or the heap layout otherwise.  parse_args adds `--src`
and puts that src/ first on sys.path, so call it before importing msflow.
"""

import os
import pathlib
import sys

PINNED_ENV = {
    "MSFLOW_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {"desk": ROOT / "configs" / "desk_test1.cfg", "paper": ROOT / "configs" / "paper_like.cfg"}


def parse_args(parser):
    """The arguments of parser with `--src`, the src/ to import msflow from,
    which goes first on sys.path."""
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import msflow from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    return args


def config_mesh(scale, seed=None):
    """The run spec of the desk or the paper config, seed overriding its
    mesh seed, and its mesh and coarse grid."""
    from msflow.config import parse_config
    from msflow.geometry import generate_structured_mesh

    spec = parse_config(str(CONFIGS[scale]), mode="sweep", seed=seed)
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    return spec, mesh, coarse


def slices(space, mesh, coarse, sizes):
    """(m, space cut to m by resize_space) for each m of sizes, smallest
    first: a space is built once at the largest m, which is its own."""
    from msflow.gmsfem import resize_space

    for m in sorted(sizes):
        yield m, space if m == space.m else resize_space(space, mesh, coarse, m)
