"""Run configuration: flat key-value text files with section headers.

`_KEYS` declares every key once: its section, its default and the parser
that checks its range.  A parser takes a value's text and returns the value,
or raises ValueError saying what is wrong with it; the reader adds the key
and the line.  The README's config table lists the same keys.  Presets
test1/test2/test3 expand to the benchmark parameter bundles (50 steps,
porosity 0.3).
"""

import os
import numpy as np
from dataclasses import dataclass
from functools import partial

from .errors import ConfigError
from .geometry import CircleInclusion, DomainSpec
from .parameters import BoundaryData, ModelParameters, TEST_PRESETS


def _number(text, rule=None, holds=None):
    """One finite number, within the range `holds` (described by `rule`)."""
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not np.isfinite(number):
        raise ValueError(f"not a finite number: {text!r}")
    if holds is not None and not holds(number):
        raise ValueError(f"{rule}, got {number:g}")
    return number


def _integer(text, least=None, most=None):
    try:
        number = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if least is not None and number < least:
        raise ValueError(f"must be at least {least}, got {number}")
    if most is not None and number > most:
        raise ValueError(f"must be at most {most}, got {number}")
    return number


def _numbers(text, count):
    parts = text.split()
    if len(parts) != count:
        raise ValueError(f"expected {count} numbers, got {len(parts)}")
    return [_number(part) for part in parts]


def _distinct(text, parse_one):
    """Space-separated values, none repeated: each names one CSV row or file."""
    values = [parse_one(part) for part in text.split()]
    names = [f"{v:g}" for v in values]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"{name} is repeated")
    return values


def _bbox(text):
    x0, y0, x1, y1 = _numbers(text, 4)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"x1 and y1 must exceed x0 and y0, got {text}")
    return (x0, y0, x1, y1)


def _inclusions(text):
    """`none` (no disks), `random`, or literal disks `cx cy r ; ...`."""
    lowered = text.lower()
    if lowered == "none":
        return []
    if lowered == "random":
        return lowered
    chunks = (chunk for chunk in text.split(";") if chunk.strip())
    return [CircleInclusion(*_numbers(chunk, 3)) for chunk in chunks]


def _choice(text, options):
    """The value that `options` maps the text to, in any letter case."""
    if text.lower() not in options:
        raise ValueError(f"must be one of {', '.join(options)}, got {text!r}")
    return options[text.lower()]


def _directory(text):
    if os.path.exists(text) and not os.path.isdir(text):
        raise ValueError(f"not a directory: {text}")
    return text


# A mesh resolution, step count or basis size.  The upper bound keeps every
# count an int32 array size and t_max / n_steps a float.
_COUNT = partial(_integer, least=1, most=np.iinfo(np.int32).max)
_POSITIVE = partial(_number, rule="must be positive", holds=lambda x: x > 0)
_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True}
_BOOLEANS.update(dict.fromkeys(("false", "no", "0", "off"), False))

# section -> key -> (default text, parser).  A default is parsed like a
# given value.  None means no value unless given; parse_config then takes
# porosity from the preset and da_list from da.  Key names are unique across
# sections.  The README's config table mirrors this one.
_KEYS = {
    "domain": {
        "bbox": ("-1 -1 1 1", _bbox),
        "porosity": (None, partial(_number, rule="must lie in (0, 1]", holds=lambda x: 0 < x <= 1)),
        "inclusions": ("none", _inclusions),
        "n_inclusions": ("24", partial(_integer, least=0)),
        "radius_min": ("0.05", _POSITIVE),
        "radius_max": ("0.12", _number),
    },
    "mesh": {
        "source": ("generate", partial(_choice, options={"generate": "generate", "load": "load"})),
        "nx": ("4", _COUNT),
        "ny": ("4", _COUNT),
        "n_per_coarse": ("8", _COUNT),
        "path": (None, str),
    },
    "model": {
        "preset": (None, partial(_choice, options=TEST_PRESETS)),  # (re, forchheimer, t_max)
        "re": (None, _POSITIVE),
        "forchheimer": (None, partial(_number, rule="must be at least 0", holds=lambda x: x >= 0)),
        "t_max": (None, _POSITIVE),
        "n_steps": ("50", _COUNT),
        "da": ("1e-3", _POSITIVE),
        "gamma": ("4.0", _POSITIVE),
    },
    "bc": {"inflow": ("1 0", lambda text: BoundaryData.inflow(_numbers(text, 2)))},
    "run": {
        "m_list": ("", partial(_distinct, parse_one=_COUNT)),
        "da_list": (None, partial(_distinct, parse_one=_POSITIVE)),
        "oversampled": ("false", partial(_choice, options=_BOOLEANS)),
        "out": ("msflow_out", str),
        "seed": ("0", _integer),
        "reference": (None, str),
        "other": (None, str),
        "basis_cache": (None, _directory),
    },
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
    out_line: int = None  # the config line that gave out_dir, if one did
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


def _read(path):
    """Every key's value, parsed from the file or from its default, and the
    line of every key the file gives."""
    given = {}
    section = None
    with open(path) as fh:
        rows = fh.read().splitlines()
    for lineno, raw in enumerate(rows, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        if key in given:
            message = f"key {key!r} in section [{section}] repeats line {given[key][1]}"
            raise ConfigError(message, line=lineno)
        given[key] = (value, lineno)
    values = {}
    for keys in _KEYS.values():
        for key, (default, parse) in keys.items():
            text, lineno = given.get(key, (default, None))
            try:
                values[key] = None if text is None else parse(text)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}", line=lineno) from None
    return values, {key: lineno for key, (_, lineno) in given.items()}


def parse_config(path, mode, out_dir=None, seed=None):
    """Parse and validate a config file into a RunSpec for the given mode.

    out_dir/seed, when given (e.g. from the command line), override the
    file's [run] entries.  Every given key is checked, whether or not the
    mode reads it.  Nothing is written: cli.run makes the output directory.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    value, line = _read(path)

    rmin, rmax = value["radius_min"], value["radius_max"]
    if rmax < rmin:
        message = f"key 'radius_max': {rmax:g} is below radius_min {rmin:g}"
        raise ConfigError(message, line=line.get("radius_max", line.get("radius_min")))
    inclusions = value["inclusions"]
    if inclusions == "random":
        run_seed = value["seed"] if seed is None else int(seed)
        inclusions = generate_inclusions(value["bbox"], value["n_inclusions"], rmin, rmax, run_seed)
    try:
        domain = DomainSpec(bbox=value["bbox"], inclusions=inclusions)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line.get("inclusions")) from exc

    if value["source"] == "load":
        if value["path"] is None:
            raise ConfigError("mesh source 'load' requires a path", line=line.get("source"))
        if not os.path.exists(value["path"]):
            raise ConfigError(f"mesh file not found: {value['path']}", line=line.get("path"))

    bundle = dict(zip(("re", "forchheimer", "t_max"), value["preset"] or (None,) * 3))
    reynolds, forchheimer, t_max = (bundle[k] if value[k] is None else value[k] for k in bundle)
    if reynolds is None or forchheimer is None or t_max is None:
        raise ConfigError("model needs a preset or explicit re, forchheimer and t_max")
    n_steps = value["n_steps"]
    tau = t_max / n_steps
    if tau == 0:
        message = f"key 't_max': {t_max!r} over {n_steps} steps gives a zero time step"
        raise ConfigError(message, line=line.get("t_max"))
    porosity = value["porosity"] or (1.0 if value["preset"] is None else 0.3)  # a given one is > 0
    params = ModelParameters(
        reynolds=reynolds, darcy=value["da"], forchheimer=forchheimer, porosity=porosity,
        tau=tau, n_steps=n_steps, penalty=value["gamma"],
    )

    reference, other = value["reference"], value["other"]
    if mode in ("ms", "sweep") and not value["m_list"]:
        raise ConfigError(f"mode {mode!r} requires m_list")
    if mode == "compare":
        for label, p in (("reference", reference), ("other", other)):
            if p is None:
                raise ConfigError(f"compare mode requires {label}")
            if not os.path.exists(p):
                raise ConfigError(f"{label} file not found: {p}", line=line.get(label))
    if reference is not None and mode == "ms" and not os.path.exists(reference):
        raise ConfigError(f"reference file not found: {reference}", line=line.get("reference"))

    return RunSpec(
        domain=domain, mesh_source=value["source"], nx=value["nx"], ny=value["ny"],
        n_per_coarse=value["n_per_coarse"], mesh_path=value["path"], params=params,
        bc=value["inflow"], mode=mode, m_list=value["m_list"],
        da_list=[value["da"]] if value["da_list"] is None else value["da_list"],
        oversampled=value["oversampled"], out_dir=out_dir or value["out"],
        out_line=None if out_dir else line.get("out"),  # --out has no line in the file
        reference=reference, other=other, basis_cache=value["basis_cache"],
    )
