"""Pipeline configuration: defaults, config-file parsing, overrides."""

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import ParseError
from .voting import yaw_bins

# fields that may be 0: lam (award-only scoring) and extend_m (corners
# only on both segments); min_confidence takes any finite value
_NON_NEGATIVE = ("lam", "extend_m")


@dataclass
class PipelineConfig:
    """Every tunable of the registration pipeline, with defaults."""

    # plane segmentation
    s_v: float = 2.0
    sigma_lambda: float = 10.0
    normal_tol_deg: float = 10.0
    dist_tol_m: float = 0.1
    gravity_tol_deg: float = 15.0
    # wall segments and corners
    endpoint_tol_m: float = 0.3
    angle_tol_deg: float = 5.0
    extend_m: float = 1.0
    nms_radius_m: float = 0.5
    min_angle_deg: float = 10.0
    # triangle descriptors
    r_s: float = 0.5
    r_a: float = 3.0
    l_max: float = 30.0
    # pose voting
    r_xy: float = 0.15
    r_yaw_deg: float = 1.0
    residual_max_m: float = 0.3
    l_cells: int = 10000
    k_cells: int = 5000
    j_candidates: int = 16
    # verification
    s_r: float = 0.2
    k_d: int = 5
    lam: float = 0.5
    min_confidence: float = 0.8

    def validate(self) -> None:
        """Raise ValueError on any out-of-range or non-finite parameter,
        or an integer field that holds a non-integer."""
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if type(f.default) is int and not isinstance(v, numbers.Integral):
                raise ValueError("%s must be an integer, got %r" % (f.name, v))
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("%s must be finite, got %r" % (f.name, v))
            if f.name in _NON_NEGATIVE:
                if v < 0:
                    raise ValueError("%s must be >= 0, got %r" % (f.name, v))
            elif v <= 0 and f.name != "min_confidence":
                raise ValueError("%s must be positive, got %r" % (f.name, v))
        yaw_bins(self.r_yaw_deg)  # raises for fewer than MIN_YAW_BINS bins
        if not self.l_cells >= self.k_cells >= self.j_candidates:
            raise ValueError(
                "need l_cells >= k_cells >= j_candidates, got %d/%d/%d"
                % (self.l_cells, self.k_cells, self.j_candidates)
            )


def parse_config_file(path) -> Dict[str, str]:
    """Read flat `key = value` lines; '#' starts a comment. A key given
    twice raises ParseError naming both lines."""
    out: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("%s:%d: expected key = value" % (path, ln))
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ParseError("%s:%d: expected key = value" % (path, ln))
            if key in out:
                raise ParseError("%s:%d: %s is already set at line %d" % (path, ln, key, first_line[key]))
            out[key], first_line[key] = value, ln
    return out


def make_config(file_path=None, overrides: Optional[Dict[str, str]] = None) -> PipelineConfig:
    """Defaults, then config file, then explicit overrides; validated.

    Bad file content raises ParseError; bad override keys or values are
    caller mistakes and raise ValueError.
    """
    cfg = PipelineConfig()
    kinds = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}
    from_file = parse_config_file(file_path) if file_path is not None else {}
    overrides = {k: str(v) for k, v in (overrides or {}).items()}
    for key, text in {**from_file, **overrides}.items():
        error = ValueError if key in overrides else ParseError
        if key not in kinds:
            raise error("unknown config key %r" % (key,))
        try:
            setattr(cfg, key, kinds[key](text))
        except ValueError:
            raise error("bad value for %s: %r" % (key, text)) from None
    cfg.validate()
    return cfg


def echo_config(cfg: PipelineConfig) -> str:
    """One `key = value` line per field, declaration order, reparseable."""
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        lines.append("%s = %s" % (f.name, repr(v) if isinstance(v, float) else v))
    return "\n".join(lines)
