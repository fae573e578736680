"""Run configuration: flat ``key = value`` text with dotted keys.

Lines starting with ``#`` (or anything after an inline ``#``) are
comments.  Exactly one of ``anna`` / the four ``scales.*`` keys must be
given, and exactly one field source (``field.pattern`` with its
parameters, or ``field.path``).  Da sweeps accept an explicit comma
list or ``logspace:start_exp,end_exp,count``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import ConfigError, atomic_write_text, read_utf8_text
from .media import PATTERNS
from .scaling import ReferenceScales, check_da_values
from .solvers import SolverConfig


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
        exponents = np.linspace(_parse_number(start), _parse_number(end), int(count))
        try:  # C pow, as ReferenceScales.darcy: np.logspace(-5, 5, 11) starts at
            # 9.999999999999999e-06, which a table prints as 1.00000e-05
            da = [10.0 ** e for e in exponents.tolist()]
        except OverflowError as exc:  # 10**400 is not finite
            raise ValueError(spec) from exc
    else:
        da = spec.split(",")
    return tuple(_parse_number(v) for v in da)


#: Each kind of value: its parser, what the parser accepts (for the "not
#: <kind>" message) and how write_config spells a value so it parses back equal.
_INT = (int, "an integer", str)
_TEXT = (str, "text", str)
_NUMBER = (_parse_number, "a finite number", repr)
_BOOL = (_parse_bool, "a boolean", lambda value: str(value).lower())
_DA = (_parse_da, "a comma list of finite numbers or logspace:start_exp,end_exp,count",
       lambda values: ",".join(map(repr, values)))

_SCALE_KEYS = ("scales.l_ref", "scales.mu", "scales.mu_eff", "scales.k_max")
#: Every config key, the RunConfig field it sets and its kind of value; the
#: scales.* keys are gathered into ``scales``.
_KEYS = {
    "grid.nx": ("nx", _INT),
    "grid.ny": ("ny", _INT),
    "anna": ("anna", _NUMBER),
    **{key: (key, _NUMBER) for key in _SCALE_KEYS},
    "field.pattern": ("field_pattern", _TEXT),
    "field.contrast_x": ("contrast_x", _NUMBER),
    "field.contrast_y": ("contrast_y", _NUMBER),
    "field.seed": ("seed", _INT),
    "field.path": ("field_path", _TEXT),
    "bc.gx": ("gx", _NUMBER),
    "bc.gy": ("gy", _NUMBER),
    "solver.tol": ("tol", _NUMBER),
    "solver.maxit": ("maxit", _INT),
    "solver.restart": ("restart", _INT),
    "solver.pin_pressure": ("pin_pressure", _BOOL),
    "sweep.da": ("da_values", _DA),
    "output.dir": ("out_dir", _TEXT),
    "output.timings": ("timings", _BOOL),
}
#: Keys of the field generator, left out when the field comes from ``field.path``.
_GENERATOR_KEYS = ("field.pattern", "field.contrast_x", "field.contrast_y", "field.seed")


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
    tol: float = SolverConfig.tol
    maxit: int | None = SolverConfig.maxit
    restart: int | None = SolverConfig.restart
    pin_pressure: bool = False
    da_values: tuple[float, ...] | None = None
    out_dir: str = "out"
    timings: bool = True

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("grid.nx" if self.nx < 1 else "grid.ny",
                              f"grid must be at least 1x1, got {self.nx}x{self.ny}")
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
        if self.field_path is not None:
            # write_config leaves the generator keys out, so only their defaults parse back
            for key in _GENERATOR_KEYS:
                name = _KEYS[key][0]
                value = getattr(self, name)
                if value != self.__dataclass_fields__[name].default:
                    raise ConfigError(key, f"the field comes from field.path, so {key} = "
                                           f"{value!r} would be ignored; delete this line")
        for key, contrast in (("field.contrast_x", self.contrast_x),
                              ("field.contrast_y", self.contrast_y)):
            if not (np.isfinite(contrast) and contrast >= 1.0):
                raise ConfigError(key, f"must be finite and >= 1, got {contrast}")
        for key, text in (("field.path", self.field_path), ("output.dir", self.out_dir)):
            # write_config must be able to write it as a line the parser reads back
            if text is not None and not (text.splitlines() == [text]
                                         and text.split("#", 1)[0].strip() == text):
                raise ConfigError(key, f"{text!r} cannot be written to a config file: it is "
                                       "empty or holds a '#', a line break or edge whitespace")
        if self.seed < 0:
            raise ConfigError("field.seed", f"must be >= 0, got {self.seed}")
        for key, value in (("bc.gx", self.gx), ("bc.gy", self.gy)):
            if not np.isfinite(value):
                raise ConfigError(key, f"must be a finite number, got {value}")
        self.solver_config()
        if self.da_values is not None:
            self.da_values = check_da_values(self.da_values)

    def solver_config(self) -> SolverConfig:
        """The GMRES settings of this run; a bad one raises ConfigError('solver.<key>')."""
        return SolverConfig(self.tol, self.maxit, self.restart)

    def effective_anna(self) -> float:
        """anna as given, or the one the scales block gives."""
        if self.anna is not None:
            return self.anna
        return self.scales.anna


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
        if key not in _KEYS:
            raise ConfigError(key, f"{source}:{lineno}: unknown key")
        name, (parse, expected, _) = _KEYS[key]
        if name in values:
            raise ConfigError(key, f"{source}:{lineno}: duplicate key")
        if not value:
            raise ConfigError(key, f"{source}:{lineno}: empty value")
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(key, f"{source}:{lineno}: not {expected}: {value!r}") from exc
        except MemoryError as exc:  # a logspace count too large to allocate
            raise ConfigError(key, f"{source}:{lineno}: {value!r} does not fit in memory") from exc

    for key in ("grid.nx", "grid.ny"):
        if _KEYS[key][0] not in values:
            raise ConfigError(key, "grid.nx and grid.ny are required")
    if any(key in values for key in _SCALE_KEYS):
        missing = [key for key in _SCALE_KEYS if key not in values]
        if missing:
            raise ConfigError(missing[0], "all four scales.* keys are required together")
        values["scales"] = ReferenceScales(*(values.pop(key) for key in _SCALE_KEYS))
    # keys left out fall back to the RunConfig defaults
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    try:
        text = read_utf8_text(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text, source=str(path))


def write_config(config: RunConfig, path) -> None:
    """Emit a config file that re-parses to an identical RunConfig: every
    set key in ``_KEYS`` order, without the generator keys of a
    ``field.path`` run."""
    lines = []
    for key, (name, (_, _, spell)) in _KEYS.items():
        if key in _SCALE_KEYS:
            value = getattr(config.scales, key.removeprefix("scales."), None)  # None with anna
        else:
            value = getattr(config, name)
        if value is None or (config.field_path is not None and key in _GENERATOR_KEYS):
            continue
        lines.append(f"{key} = {spell(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
