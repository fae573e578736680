"""Run configuration: flat ``key = value`` text with dotted keys.

Lines starting with ``#`` (or anything after an inline ``#``) are
comments.  Exactly one of ``anna`` / the five ``scales.*`` keys must be
given, and exactly one field source (``field.pattern`` with its
parameters, or ``field.path``).  Da sweeps accept an explicit comma
list or ``logspace:start_exp,end_exp,count``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text
from .media import PATTERNS
from .scaling import ReferenceScales, check_da_values, dimensionless_groups
from .solvers import SettingError, SolverConfig


class ConfigError(ValueError):
    """Bad configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(value)


def _parse_number(value: str) -> float:
    number = float(value)
    if not np.isfinite(number):
        raise ValueError(value)
    return number


def _parse_da(spec: str) -> tuple[float, ...]:
    if spec.startswith("logspace:"):
        start, end, count = spec[len("logspace:"):].split(",")
        with np.errstate(over="ignore"):  # 10**400 becomes inf, rejected below
            da = np.logspace(_parse_number(start), _parse_number(end), int(count))
    else:
        da = spec.split(",")
    return tuple(_parse_number(v) for v in da)


_SCALE_KEYS = ("scales.l_ref", "scales.u_ref", "scales.mu", "scales.mu_eff", "scales.k_max")
#: Every config key and the RunConfig field it sets; the scales.* keys
#: are gathered into ``scales``.
_KEYS = {
    "grid.nx": ("nx", int),
    "grid.ny": ("ny", int),
    "anna": ("anna", _parse_number),
    **{key: (key, _parse_number) for key in _SCALE_KEYS},
    "field.pattern": ("field_pattern", str),
    "field.contrast_x": ("contrast_x", _parse_number),
    "field.contrast_y": ("contrast_y", _parse_number),
    "field.seed": ("seed", int),
    "field.path": ("field_path", str),
    "bc.gx": ("gx", _parse_number),
    "bc.gy": ("gy", _parse_number),
    "solver.tol": ("tol", _parse_number),
    "solver.maxit": ("maxit", int),
    "solver.restart": ("restart", int),
    "solver.pin_pressure": ("pin_pressure", _parse_bool),
    "sweep.da": ("da_values", _parse_da),
    "output.dir": ("out_dir", str),
    "output.timings": ("timings", _parse_bool),
}
#: What each value parser accepts, for error messages.
_EXPECTED = {
    int: "an integer",
    _parse_number: "a finite number",
    _parse_bool: "a boolean",
    _parse_da: "a comma list of finite numbers or logspace:start_exp,end_exp,count",
}


@dataclass
class RunConfig:
    nx: int
    ny: int
    anna: float | None = None
    scales: ReferenceScales | None = None
    field_pattern: str | None = None
    contrast_x: float = 1.0
    contrast_y: float = 1.0
    seed: int = 0
    field_path: str | None = None
    gx: float = 1.0
    gy: float = 0.0
    tol: float = 1e-6
    maxit: int | None = None
    restart: int | None = None
    pin_pressure: bool = False
    da_values: tuple[float, ...] | None = None
    out_dir: str = "out"
    timings: bool = True

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("grid.nx", f"grid must be at least 1x1, got {self.nx}x{self.ny}")
        if (self.anna is None) == (self.scales is None):
            raise ConfigError("anna", "exactly one of 'anna' or the 'scales.*' block is required")
        if self.anna is not None and not (np.isfinite(self.anna) and self.anna > 0.0):
            raise ConfigError("anna", f"must be positive and finite, got {self.anna}")
        if (self.field_pattern is None) == (self.field_path is None):
            raise ConfigError(
                "field.pattern", "exactly one field source is required ('field.pattern' or 'field.path')"
            )
        if self.field_pattern is not None and self.field_pattern not in PATTERNS:
            raise ConfigError("field.pattern", f"must be one of {PATTERNS}, got {self.field_pattern!r}")
        for key, contrast in (("field.contrast_x", self.contrast_x),
                              ("field.contrast_y", self.contrast_y)):
            if not (np.isfinite(contrast) and contrast >= 1.0):
                raise ConfigError(key, f"must be finite and >= 1, got {contrast}")
        if self.seed < 0:
            raise ConfigError("field.seed", f"must be >= 0, got {self.seed}")
        for key, value in (("bc.gx", self.gx), ("bc.gy", self.gy)):
            if not np.isfinite(value):
                raise ConfigError(key, f"must be a finite number, got {value}")
        self.solver_config()
        if self.da_values is not None:
            try:
                self.da_values = check_da_values(self.da_values)
            except ValueError as exc:
                raise ConfigError("sweep.da", str(exc)) from exc

    def solver_config(self) -> SolverConfig:
        """The GMRES settings of this run; a bad one raises ConfigError('solver.<field>')."""
        try:
            return SolverConfig(self.tol, self.maxit, self.restart)
        except SettingError as exc:
            raise ConfigError(f"solver.{exc.field}", str(exc)) from exc

    def effective_anna(self) -> float:
        if self.anna is not None:
            return self.anna
        return dimensionless_groups(self.scales).anna

    def viscosity_ratio(self) -> float:
        """mu'/mu from the scales block; 1 when anna is given directly."""
        if self.scales is not None:
            return self.scales.mu_eff / self.scales.mu
        return 1.0


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "solver.preconditioner":
            raise ConfigError(key, f"{source}:{lineno}: removed; GMRES always runs "
                                   "unpreconditioned, delete this line")
        if key not in _KEYS:
            raise ConfigError(key, f"{source}:{lineno}: unknown key")
        name, parse = _KEYS[key]
        if name in values:
            raise ConfigError(key, f"{source}:{lineno}: duplicate key")
        if not value:
            raise ConfigError(key, f"{source}:{lineno}: empty value")
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(key, f"{source}:{lineno}: not {_EXPECTED[parse]}: {value!r}") from exc

    if "nx" not in values or "ny" not in values:
        raise ConfigError("grid.nx", "grid.nx and grid.ny are required")
    given = [key for key in _SCALE_KEYS if key in values]
    if given:
        missing = [key for key in _SCALE_KEYS if key not in values]
        if missing:
            raise ConfigError(missing[0], "all five scales.* keys are required together")
        try:
            values["scales"] = ReferenceScales(*(values.pop(key) for key in _SCALE_KEYS))
        except ValueError as exc:
            raise ConfigError(given[0], str(exc)) from exc
    # keys left out fall back to the RunConfig defaults
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def write_config(config: RunConfig, path) -> None:
    """Emit a config file that re-parses to an identical RunConfig."""
    lines = [
        f"grid.nx = {config.nx}",
        f"grid.ny = {config.ny}",
    ]
    if config.anna is not None:
        lines.append(f"anna = {config.anna!r}")
    if config.scales is not None:
        s = config.scales
        lines += [
            f"scales.l_ref = {s.l_ref!r}",
            f"scales.u_ref = {s.u_ref!r}",
            f"scales.mu = {s.mu!r}",
            f"scales.mu_eff = {s.mu_eff!r}",
            f"scales.k_max = {s.k_max!r}",
        ]
    if config.field_pattern is not None:
        lines += [
            f"field.pattern = {config.field_pattern}",
            f"field.contrast_x = {config.contrast_x!r}",
            f"field.contrast_y = {config.contrast_y!r}",
            f"field.seed = {config.seed}",
        ]
    else:
        lines.append(f"field.path = {config.field_path}")
    lines += [
        f"bc.gx = {config.gx!r}",
        f"bc.gy = {config.gy!r}",
        f"solver.tol = {config.tol!r}",
    ]
    if config.maxit is not None:
        lines.append(f"solver.maxit = {config.maxit}")
    if config.restart is not None:
        lines.append(f"solver.restart = {config.restart}")
    lines.append(f"solver.pin_pressure = {str(config.pin_pressure).lower()}")
    if config.da_values is not None:
        lines.append("sweep.da = " + ",".join(repr(v) for v in config.da_values))
    lines += [
        f"output.dir = {config.out_dir}",
        f"output.timings = {str(config.timings).lower()}",
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
