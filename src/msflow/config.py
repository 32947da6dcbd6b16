"""Run configuration: flat key-value text files with section headers.

Sections and keys are documented in the README; parse errors carry line
numbers.  Presets test1/test2/test3 expand to the benchmark parameter
bundles (50 steps, porosity 0.3).
"""

import os
import numpy as np
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import CircleInclusion, DomainSpec
from .parameters import BoundaryData, ModelParameters, TEST_PRESETS

_SECTIONS = {
    "domain": {"bbox", "porosity", "inclusions", "n_inclusions", "radius_min", "radius_max"},
    "mesh": {"source", "nx", "ny", "n_per_coarse", "path"},
    "model": {"preset", "re", "forchheimer", "t_max", "n_steps", "da", "gamma"},
    "bc": {"inflow"},
    "run": {"m_list", "da_list", "oversampled", "out", "seed", "reference", "other", "basis_cache"},
}
# The allowed range of each number key, checked where its value is parsed.
_POSITIVE = ("must be positive", lambda x: x > 0)
_LIMITS = {
    "porosity": ("must lie in (0, 1]", lambda x: 0 < x <= 1),
    "forchheimer": ("must be at least 0", lambda x: x >= 0),
    **dict.fromkeys(("re", "t_max", "da", "gamma", "da_list", "radius_min"), _POSITIVE),
}


@dataclass
class RunSpec:
    """Validated run description assembled from a config file."""

    domain: DomainSpec
    mesh_source: str
    nx: int
    ny: int
    n_per_coarse: int
    mesh_path: str
    params: ModelParameters
    bc: BoundaryData
    mode: str
    m_list: list
    da_list: list
    oversampled: bool
    out_dir: str
    reference: str = None
    other: str = None
    basis_cache: str = None


def generate_inclusions(bbox, n, radius_min, radius_max, seed, gap_frac=0.02):
    """Deterministic rejection sampling of non-overlapping disks strictly
    inside the box, with a clearance of gap_frac times the short box side."""
    x0, y0, x1, y1 = bbox
    gap = gap_frac * min(x1 - x0, y1 - y0)
    rng = np.random.default_rng(seed)
    placed = []
    attempts = 0
    while len(placed) < n:
        attempts += 1
        if attempts > 20000 * max(n, 1):
            raise ConfigError(
                f"could not place {n} non-overlapping inclusions "
                f"(radius range {radius_min}..{radius_max})"
            )
        r = float(rng.uniform(radius_min, radius_max))
        margin = r + gap
        if x1 - x0 <= 2 * margin or y1 - y0 <= 2 * margin:
            raise ConfigError("inclusion radius too large for the domain")
        cx = float(rng.uniform(x0 + margin, x1 - margin))
        cy = float(rng.uniform(y0 + margin, y1 - margin))
        ok = all(
            np.hypot(cx - inc.cx, cy - inc.cy) > r + inc.radius + gap for inc in placed
        )
        if ok:
            placed.append(CircleInclusion(cx, cy, r))
    return placed


def _parse_sections(path):
    entries = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        if (section, key) in entries:
            first = entries[section, key][1]
            raise ConfigError(f"key {key!r} in section [{section}] repeats line {first}", line=lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _get(entries, section, key, default=None):
    return entries.get((section, key), (default, None))


def _parse_float(value, lineno, key):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {value!r}", line=lineno) from None
    if not np.isfinite(number):
        raise ConfigError(f"key {key!r}: not a finite number: {value!r}", line=lineno)
    rule, holds = _LIMITS.get(key, (None, lambda x: True))
    if not holds(number):
        raise ConfigError(f"key {key!r}: {rule}, got {number:g}", line=lineno)
    return number


def _parse_int(value, lineno, key):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {value!r}", line=lineno) from None


def _parse_count(value, lineno, key):
    """A positive integer: a mesh resolution or a step count."""
    count = _parse_int(value, lineno, key)
    if count < 1:
        raise ConfigError(f"key {key!r}: must be at least 1, got {count}", line=lineno)
    return count


def _parse_floats(value, lineno, key, count=None):
    parts = value.split()
    if count is not None and len(parts) != count:
        raise ConfigError(
            f"key {key!r}: expected {count} numbers, got {len(parts)}", line=lineno
        )
    return [_parse_float(p, lineno, key) for p in parts]


def _parse_list(value, lineno, key, parse):
    """Space-separated values, none repeated: each names one CSV row or file."""
    values = [parse(v, lineno, key) for v in value.split()]
    names = [f"{v:g}" for v in values]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"key {key!r}: {name} is repeated", line=lineno)
    return values


def _parse_bool(value, lineno, key):
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {value!r}", line=lineno)


def parse_config(path, mode, out_dir=None, seed=None):
    """Parse and validate a config file into a RunSpec for the given mode.

    out_dir/seed, when given (e.g. from the command line), override the
    file's [run] entries.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    entries = _parse_sections(path)

    value, lineno = _get(entries, "domain", "bbox", "-1 -1 1 1")
    x0, y0, x1, y1 = _parse_floats(value, lineno, "bbox", count=4)
    bbox = (x0, y0, x1, y1)
    if not (x1 > x0 and y1 > y0):
        raise ConfigError(f"key 'bbox': x1 and y1 must exceed x0 and y0, got {value}", line=lineno)

    value, lineno = _get(entries, "run", "seed", "0")
    run_seed = _parse_int(value, lineno, "seed") if seed is None else int(seed)

    preset, preset_line = _get(entries, "model", "preset")
    value, lineno = _get(entries, "domain", "porosity", "1" if preset is None else "0.3")
    porosity = _parse_float(value, lineno, "porosity")

    inclusions_value, inc_line = _get(entries, "domain", "inclusions", "none")
    if inclusions_value.strip().lower() == "none":
        inclusions = []
    elif inclusions_value.strip().lower() == "random":
        value, lineno = _get(entries, "domain", "n_inclusions", "24")
        n_inclusions = _parse_int(value, lineno, "n_inclusions")
        if n_inclusions < 0:
            message = f"key 'n_inclusions': must be at least 0, got {n_inclusions}"
            raise ConfigError(message, line=lineno)
        value, rmin_line = _get(entries, "domain", "radius_min", "0.05")
        rmin = _parse_float(value, rmin_line, "radius_min")
        value, lineno = _get(entries, "domain", "radius_max", "0.12")
        rmax = _parse_float(value, lineno, "radius_max")
        if rmax < rmin:
            raise ConfigError(
                f"key 'radius_max': {rmax:g} is below radius_min {rmin:g}",
                line=lineno if lineno is not None else rmin_line,
            )
        inclusions = generate_inclusions(bbox, n_inclusions, rmin, rmax, run_seed)
    else:
        inclusions = []
        for chunk in inclusions_value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            cx, cy, r = _parse_floats(chunk, inc_line, "inclusions", count=3)
            inclusions.append(CircleInclusion(cx, cy, r))
    try:
        domain = DomainSpec(bbox=bbox, inclusions=inclusions, porosity=porosity)
    except ValueError as exc:
        raise ConfigError(str(exc), line=inc_line) from exc

    value, lineno = _get(entries, "mesh", "source", "generate")
    mesh_source = value.lower()
    if mesh_source not in ("generate", "load"):
        raise ConfigError(f"mesh source must be generate or load, got {value!r}", line=lineno)
    value, lineno = _get(entries, "mesh", "nx", "4")
    nx = _parse_count(value, lineno, "nx")
    value, lineno = _get(entries, "mesh", "ny", "4")
    ny = _parse_count(value, lineno, "ny")
    value, lineno = _get(entries, "mesh", "n_per_coarse", "8")
    n_per_coarse = _parse_count(value, lineno, "n_per_coarse")
    mesh_path, path_line = _get(entries, "mesh", "path")
    if mesh_source == "load":
        if mesh_path is None:
            raise ConfigError("mesh source 'load' requires a path", line=lineno)
        if not os.path.exists(mesh_path):
            raise ConfigError(f"mesh file not found: {mesh_path}", line=path_line)

    value, lineno = _get(entries, "model", "n_steps", "50")
    n_steps = _parse_count(value, lineno, "n_steps")
    if preset is not None:
        if preset not in TEST_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}", line=preset_line)
        reynolds, forchheimer, t_max = TEST_PRESETS[preset]
    else:
        reynolds = forchheimer = t_max = None
    value, lineno = _get(entries, "model", "re")
    if value is not None:
        reynolds = _parse_float(value, lineno, "re")
    value, lineno = _get(entries, "model", "forchheimer")
    if value is not None:
        forchheimer = _parse_float(value, lineno, "forchheimer")
    value, lineno = _get(entries, "model", "t_max")
    if value is not None:
        t_max = _parse_float(value, lineno, "t_max")
    if reynolds is None or forchheimer is None or t_max is None:
        raise ConfigError("model needs a preset or explicit re, forchheimer and t_max")
    value, lineno = _get(entries, "model", "da", "1e-3")
    darcy = _parse_float(value, lineno, "da")
    value, lineno = _get(entries, "model", "gamma", "4.0")
    penalty = _parse_float(value, lineno, "gamma")
    try:
        params = ModelParameters(
            reynolds=reynolds,
            darcy=darcy,
            forchheimer=forchheimer,
            porosity=porosity,
            tau=t_max / n_steps,
            n_steps=n_steps,
            penalty=penalty,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    value, lineno = _get(entries, "bc", "inflow", "1 0")
    gx, gy = _parse_floats(value, lineno, "inflow", count=2)
    bc = BoundaryData.inflow((gx, gy))

    value, lineno = _get(entries, "run", "m_list", "")
    m_list = _parse_list(value, lineno, "m_list", _parse_count)
    value, lineno = _get(entries, "run", "da_list")
    da_list = [darcy] if value is None else _parse_list(value, lineno, "da_list", _parse_float)
    value, lineno = _get(entries, "run", "oversampled", "false")
    oversampled = _parse_bool(value, lineno, "oversampled")
    out_value, _ = _get(entries, "run", "out", "msflow_out")
    final_out = out_dir or out_value
    reference, ref_line = _get(entries, "run", "reference")
    other, other_line = _get(entries, "run", "other")
    basis_cache, cache_line = _get(entries, "run", "basis_cache")

    if mode in ("ms", "sweep") and not m_list:
        raise ConfigError(f"mode {mode!r} requires m_list")
    if mode == "compare":
        for label, p, ln in (("reference", reference, ref_line), ("other", other, other_line)):
            if p is None:
                raise ConfigError(f"compare mode requires {label}")
            if not os.path.exists(p):
                raise ConfigError(f"{label} file not found: {p}", line=ln)
    if reference is not None and mode == "ms" and not os.path.exists(reference):
        raise ConfigError(f"reference file not found: {reference}", line=ref_line)
    if basis_cache is not None and os.path.exists(basis_cache) and not os.path.isdir(basis_cache):
        raise ConfigError(f"key 'basis_cache': not a directory: {basis_cache}", line=cache_line)
    try:
        os.makedirs(final_out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not creatable: {exc}")

    return RunSpec(
        domain=domain,
        mesh_source=mesh_source,
        nx=nx,
        ny=ny,
        n_per_coarse=n_per_coarse,
        mesh_path=mesh_path,
        params=params,
        bc=bc,
        mode=mode,
        m_list=m_list,
        da_list=da_list,
        oversampled=oversampled,
        out_dir=final_out,
        reference=reference,
        other=other,
        basis_cache=basis_cache,
    )
