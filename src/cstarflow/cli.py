"""Batch experiment harness.

Scenarios are described by a single JSON config file; command-line
flags only select the config path, output directory and verbosity, so a
config (including its seed) fully determines every artifact.  Each run
writes one CSV of raw measurements plus a ``report.json`` listing every
check as (name, measured, bound, passed); the exit status is 0 iff all
tolerances were met, 1 on a tolerance failure (report still written),
2 on an invalid config, and 3 on a numerical breakdown (any other
library error, or a numpy ``LinAlgError`` or ``FloatingPointError``,
raised during the run; ``report.json`` then records ``"status":
"error"`` and the exception type).  One table, ``KEYS``, maps each
config key to its default, rules and ``ScenarioConfig`` field.  Another,
``EXPERIMENTS``, maps each experiment name to its record: runner, CSV columns,
description, ``checks`` (each check's bound, in report order), ``costs`` and
the keys runner and costs read, some chosen by ``flow.kind``; ``validate``
refuses any other key, and the echo holds these alone.  ``costs(config)``
lists what a run of the config will meet (dense size, stacked grid size,
quadrature nodes, growth exponent, time cost, instances), each against a budget;
``validate`` refuses a config over any of them.  ``run`` hands the runner a
report of the declared checks, and the runner observes each residual into it
with the scale it divides by (``ExitReport.observe``); a declared check that
no residual reached makes ``run`` raise rather than pass at 0.0.

Floats are written with shortest round-trip representation and random
data comes from a counter-based Philox stream.  The outputs of a run are
byte-identical for the same config, the same numpy build and the same
BLAS thread count; a multithreaded BLAS may sum in another order, so the
last digits of a residual can move with the thread count.  With OpenBLAS,
``verify`` at shape [128] with 9 instances writes different bytes under 1
and 2 threads (``inverse`` 8.09e-15 against 7.76e-15), while the five
bundled configs are byte-identical under both.

Each output file is rewritten in place (``_write``): opened without
``O_TRUNC``, cut to the length of its new bytes and written, so it holds
the bytes of a run into an empty directory whatever it held before.
Truncating to zero first, as ``Path.write_text`` does, took about 85 us of
a 100 us overwrite on ext4 mounted with ``discard``; this takes about 8 us
a file.  A run killed mid-write leaves a file of the new length whose
bytes mix old and new, where a truncating write left a short file.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import sampling
from .algebra import AlgebraElement, BlockShape, HermitianElement, power
from .continuation import (
    MAX_NODES,
    STRIP_SIZE,
    _smear_quadratures,
    admissible_nodes,
    continue_exact,
    core_rescale,
    min_nodes,
    smear_oracle,
    three_lines_check,
)
from .composition import CommutingPair, gamma_continuation_check, tensor_continuation_check, tensor_flow
from .errors import ConfigInvalidError, CstarflowError
from .flows import FlowGenerator, evaluate, left_companion, right_companion
from .hilbmod import (
    BlockCarrier,
    ModuleOperator,
    ModuleVector,
    identity_operator,
    inner,
    op_exp,
    op_log,
)
from .implemented import (
    ImplementedFlow,
    implemented_continuation_check,
    localized_middle_check,
)
from .serialize import element_from_payload
from .stone import (
    PROBES,
    SampledUnitaryGroup,
    induced_power_check,
    localize,
    recover,
    separating_check,
)

# Budgets; each experiment's costs function says what it counts against them.
# Dense size of the largest element, module operator or residual a run holds:
# 2**18 complex entries (4 MiB), a block of n = 512 in verify.
MAX_FLAT_SIZE = 2**18
# Stacked z-grid of tensor and implemented, grid points x dense size per point:
# 2**22 complex entries is 64 MiB per stack, and a check holds about three.
# verify and tensor run their instances, and converge its widths, in batches
# that stay within it.
MAX_GRID_SIZE = 2**22
# Growth exponent of one factor a run forms, |Im z| nu for a continuation or
# r^2 (Im z)^2 for a smear envelope. It is derived from the float range, not a
# setting: a product of two such factors stays finite.
MAX_GROWTH = 0.5 * math.log(sys.float_info.max)
# Time cost of a run in the units of _weight: about a minute on one BLAS thread (README.md has the rates).
MAX_COST = 17 * 10**10
# Spectral spread of the random positive operators of stone and implemented,
# whose log then has norm at most ln(COND) / 2.
COND = 1e3
# (name, limit, unit of the value) of each budget, as the refusal message says them
SIZE = ("budget", MAX_FLAT_SIZE, "")
GRID = ("grid budget", MAX_GRID_SIZE, " entries")
NODES = ("cap", MAX_NODES, " quadrature nodes")
GROWTH = ("growth budget", MAX_GROWTH, "")
TIME = ("time budget", MAX_COST, "")
Cost = tuple[tuple[str, float, str], float, str]

# convergence_ratio reads the smear errors at widths r and 2r, and skips the pair when
# either is at most RATIO_FLOOR * norm(x): the smear error of an element the flow fixes
# is rounding noise, about 1e-15 norm(x), and a ratio of noise says nothing
RATIO_FLOOR = 1e-12


@dataclass
class Check:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class ExitReport:
    experiment: str
    seed: int
    checks: list[Check] = field(default_factory=list)
    observed: set[str] = field(default_factory=set, init=False, repr=False)  # names observe has reached

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def observe(self, name: str, residual, scale=1.0):
        """Keep ``max(0, residual / scale)`` as the worst value of check ``name``, and return ``residual / scale``.

        ``residual`` and ``scale`` may each be a float or an array; a NaN
        ratio is kept, so the check fails.  Raises ``KeyError`` for a name
        the report does not declare.
        """
        check = next((c for c in self.checks if c.name == name), None)
        if check is None:
            raise KeyError(f"{self.experiment} declares no check {name!r}")
        ratio = residual / scale
        top = float(ratio.max()) if isinstance(ratio, np.ndarray) else ratio
        if top > check.measured or math.isnan(top):
            check.measured = top
        self.observed.add(name)
        return ratio

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass
class ScenarioConfig:
    experiment: str
    seed: int
    shape: BlockShape
    flow_kind: str
    flow_norm: float
    h_left: AlgebraElement | None
    h_right: AlgebraElement | None  # h_left when the payload gives no h_right
    element: AlgebraElement | None
    r_list: list[float]
    z_re: list[float]
    z_im: list[float]
    instances: int
    module_rank: int
    output: str

    def flow(self, r: np.random.Generator) -> FlowGenerator:
        return self.flows(self.flow_draw(r))

    def flow_draw(self, r: np.random.Generator) -> np.ndarray:
        """The raw draw of a random flow (``sampling.draw_flow``); an explicit flow draws nothing."""
        return sampling.draw_flow(r, self.shape) if self.flow_kind == "random" else np.empty(0)

    def flows(self, raw: np.ndarray) -> FlowGenerator:
        """The random flow of a raw draw, one per member of a stack of draws; or the explicit flow."""
        if self.flow_kind == "explicit":
            return FlowGenerator(HermitianElement(self.h_left), HermitianElement(self.h_right))
        return sampling.flows(self.shape, raw, self.flow_norm)

    def nu_max(self) -> float:
        """The frequency budget of ``flow``: the payload norms, or 2 * norm for random flows."""
        return self.h_left.norm() + self.h_right.norm() if self.flow_kind == "explicit" else 2.0 * self.flow_norm

    def z_grid(self) -> list[complex]:
        return [complex(re, im) for re in self.z_re for im in self.z_im]

    def im_max(self) -> float:
        return max(abs(im) for im in self.z_im)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_num(x) for x in v)


def _ints(v) -> bool:
    return isinstance(v, list) and all(_is_int(n) for n in v)


def _count(v) -> bool:
    return _is_int(v) and v >= 1


def _floats(v: list) -> list[float]:
    return [float(x) for x in v]


class Key(NamedTuple):
    """A config key's ``ScenarioConfig`` field, default (None: absent unless given),
    rules (accepts, problem) and conversion to the field (it raises on a bad shape or payload)."""

    field: str
    default: object
    rules: tuple = ()
    convert: Callable = lambda v: v


REQUIRED = object()  # the default of a key every config gives
SECTIONS = ("flow", "grid")
KEYS = {
    "experiment": Key("experiment", REQUIRED, ((lambda v: isinstance(v, str) and v in EXPERIMENTS,
                                                "unknown experiment {!r}; choose one of {experiments}"),)),
    "seed": Key("seed", REQUIRED, ((_is_int, "seed must be an integer"),)),
    "shape": Key("shape", REQUIRED, ((_ints, "shape must be a list of integers"),), BlockShape),
    "element": Key("element", None, (), element_from_payload),
    "flow.kind": Key("flow_kind", "random", ((lambda v: v in ("random", "explicit"), "unknown flow kind {!r}"),)),
    "flow.norm": Key("flow_norm", 2.0, ((lambda v: _is_num(v) and v > 0, "flow norm must be a positive number"),),
                     float),
    "flow.h_left": Key("h_left", None, (), element_from_payload),
    "flow.h_right": Key("h_right", None, (), element_from_payload),
    "grid.r": Key("r_list", [0.5, 1.0, 2.0, 4.0], (
        (_numbers, "grid.r must be a nonempty list of numbers"),
        (lambda v: not isinstance(v, list) or not any(_is_num(x) and x <= 0 for x in v),
         "grid.r entries must be positive"),
    ), _floats),
    "grid.z_re": Key("z_re", [-1.0, 0.0, 1.0], ((_numbers, "grid.z_re must be a nonempty list of numbers"),),
                     _floats),
    "grid.z_im": Key("z_im", [-0.5, 0.0, 0.5], ((_numbers, "grid.z_im must be a nonempty list of numbers"),),
                     _floats),
    "instances": Key("instances", 25, ((_count, "instances must be a positive integer"),)),
    "module_rank": Key("module_rank", 1, ((_count, "module_rank must be a positive integer"),)),
    "output": Key("output", "out", ((lambda v: isinstance(v, str), "output must be a string path"),)),
}
DEFAULTS = {key: k.default for key, k in KEYS.items() if k.default is not None and k.default is not REQUIRED}
# the keys every experiment reads; each record in EXPERIMENTS names the rest
COMMON = ("experiment", "seed", "shape", "output")


def _non_finite(value, path: str) -> list[str]:
    """Paths of the NaN and infinite numbers anywhere inside ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        return [path]
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in _non_finite(v, f"{path}.{key}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def _given(raw: dict) -> tuple[dict, list[str]]:
    """The known keys a config gives, dotted inside their section, and the keys the table lacks."""
    top = {key: v for key, v in raw.items() if key not in SECTIONS}
    inner = {f"{section}.{key}": v for section in SECTIONS for key, v in raw.get(section, {}).items()}
    unknown = [key for key in top if key not in KEYS or "." in key] + [key for key in inner if key not in KEYS]
    return {key: v for key, v in {**top, **inner}.items() if key not in unknown}, unknown


def _read_set(values: dict) -> set[str]:
    """The keys the config's experiment reads under its flow.kind: under an unknown kind, those of
    every kind, and every key for an unknown experiment, so that only the unknown value is refused."""
    name, kind = (v if isinstance(v, str) else "" for v in (values.get("experiment"), values["flow.kind"]))
    if name not in EXPERIMENTS:
        return set(KEYS)
    by_kind = EXPERIMENTS[name].by_kind
    return {*COMMON, *EXPERIMENTS[name].reads, *by_kind.get(kind, {k for keys in by_kind.values() for k in keys})}


def validate(raw: dict) -> tuple[ScenarioConfig | None, list[str]]:
    """Check a raw config dict; never executes numerics."""
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    # json parses NaN and Infinity; refuse them before any payload is built
    problems = [f"non-finite number at {p}" for p in _non_finite(raw, "config")]
    problems += [f"{key} must be a JSON object" for key in SECTIONS if not isinstance(raw.get(key, {}), dict)]
    if problems:
        return None, problems
    given, unknown = _given(raw)
    reads = _read_set({**DEFAULTS, **given})
    values = {**DEFAULTS, **{key: v for key, v in given.items() if key in reads}}
    near = [*reads, *{key.partition(".")[0] for key in reads if "." in key}]
    for key in unknown:
        match = difflib.get_close_matches(key, near, n=1)
        problems.append(f"unknown key {key}" + (f"; did you mean {match[0]}?" if match else ""))
    kind = f" with flow.kind {values['flow.kind']}" if "flow.kind" in reads else ""
    problems += [f"{values['experiment']}{kind} does not read {key}" for key in given if key not in reads]
    problems += [f"missing field: {key}" for key, k in KEYS.items() if k.default is REQUIRED and key not in values]
    converted = {}
    for key, k in KEYS.items():
        broken = [problem.format(values[key], experiments=", ".join(EXPERIMENTS))
                  for accepts, problem in k.rules if key in values and not accepts(values[key])]
        problems += broken
        if key in values and not broken:
            try:
                converted[key] = k.convert(values[key])
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"bad {key}: {exc}")
    if values["flow.kind"] == "explicit" and "flow.h_left" in reads and "flow.h_left" not in values:
        problems.append("explicit flow needs an h_left payload")
    shape = converted.get("shape")
    payloads = {key: converted[key] for key in ("flow.h_left", "flow.h_right", "element") if key in converted}
    for key, x in payloads.items():
        if shape is not None and x.shape != shape:
            problems.append(f"{key} payload does not conform to the declared shape")
        elif key == "element" and not any(b.any() for b in x.blocks):
            problems.append("element payload is zero, and the checks divide by its norm")
        elif key != "element" and not x.is_hermitian():
            problems.append(f"{key} payload is not Hermitian within tolerance")
    if problems:
        return None, problems
    converted.setdefault("flow.h_right", converted.get("flow.h_left"))
    config = ScenarioConfig(**{k.field: converted.get(key) for key, k in KEYS.items()})
    problems = [
        f"{text} {_amount(value)}{unit}, above the {name} of {_amount(limit)}"
        for (name, limit, unit), value, text in EXPERIMENTS[config.experiment].costs(config)
        if not value <= limit  # a cost of nan (inf times 0) is refused too
    ]
    return (None, problems) if problems else (config, [])


def _amount(value: float) -> str:
    """A cost as a refusal message says it: an integer above 1e15 as ``%.3g`` would.

    Such a count can have hundreds of digits, past the float range (a node
    count near r = 1e-300, a dense size from a huge shape), so it is rounded
    as a ``Decimal``.
    """
    if isinstance(value, int) and value > 1e15:
        from decimal import Decimal  # only a refusal pays for its import

        mantissa, exponent = f"{Decimal(value):.2e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"
    return str(value)


def _read(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError([f"cannot read config: {exc}"]) from exc


def resolved_defaults(raw: dict) -> dict:
    """The keys the config's experiment reads, with every default filled in."""
    values = {**DEFAULTS, **_given(raw)[0]}
    resolved: dict = {}
    for key in _read_set(values) & values.keys():
        section, _, name = key.rpartition(".")
        (resolved.setdefault(section, {}) if section else resolved)[name] = values[key]
    return resolved


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(path: Path, text: str) -> None:
    """Rewrite ``path`` in place with the UTF-8 bytes of ``text``: cut it to their length, then write them
    (the module docstring says why).  A new file gets the mode ``open`` gives under the umask."""
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        os.ftruncate(f.fileno(), len(data))
        f.write(data)  # a buffered write retries a short one


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    _write(path, "\n".join([",".join(columns), *[",".join(map(_fmt, row)) for row in rows], ""]))


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------- experiments
# Each runner takes the config and the report, observes every residual of the
# checks its record declares into the report (ExitReport.observe, which divides
# by the scale given there), and returns (CSV rows, extra files): the extra
# files map a file name in the output directory to the JSON payload written
# there. Each costs function returns one (budget, value, text) entry per
# quantity the run will meet, with ``text`` naming it in the refusal message.


def _grid(cfg: ScenarioConfig, point_size: int) -> Cost:
    points = len(cfg.z_re) * len(cfg.z_im)
    return (GRID, points * point_size, f"the z-grid of {points} points at stacked dense size"
            f" {_amount(point_size)} per point holds")


def _shape(cfg: ScenarioConfig) -> str:
    return f"shape [{', '.join(_amount(n) for n in cfg.shape)}]"


def _growth(what: str, im: float, nu: float) -> Cost:
    return GROWTH, im * nu, f"{what} reaches |Im z| = {im!r} at nu = {nu!r}, growth exponent"


def _weight(dims) -> int:
    """The time cost of one dense operation on blocks of sizes ``dims``: m^3 + 128 m^2 + 16^3 on an m x m
    block, for its arithmetic, its entrywise passes and the call."""
    return sum(m**3 + 128 * m * m + 16**3 for m in dims)


def _batches(count: int, entries: int) -> list[range]:
    """``range(count)`` in consecutive batches of at least one member, at most ``MAX_GRID_SIZE`` over the
    ``entries`` one member stacks."""
    size = max(1, MAX_GRID_SIZE // entries)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _in_batches(cfg: ScenarioConfig, report: ExitReport, entries: int, batch: Callable) -> tuple[list[tuple], dict]:
    """The CSV rows of ``batch(cfg, r, members, report)`` over the instances in stream order, in the
    ``_batches`` of the ``entries`` one instance stacks."""
    r = sampling.rng(cfg.seed)
    return [row for members in _batches(cfg.instances, entries) for row in batch(cfg, r, members, report)], {}


def _exp_verify(cfg: ScenarioConfig, report: ExitReport) -> tuple[list[tuple], dict]:
    # each instance's three_lines strip holds STRIP_SIZE elements
    return _in_batches(cfg, report, STRIP_SIZE * cfg.shape.dim, _verify_batch)


def _verify_batch(cfg: ScenarioConfig, r: np.random.Generator, members: range, report: ExitReport) -> list[tuple]:
    """Draw the instances ``members`` in stream order, finish their flows and elements as one batch,
    observe their six checks as one batch each, and return their CSV rows."""
    grid = cfg.z_grid()
    draws = []
    for i in members:
        flow, xab = cfg.flow_draw(r), sampling.draw_elements(r, cfg.shape, 3)
        s, t = r.uniform(-2.0, 2.0, size=2)
        z = grid[i % len(grid)]
        y = complex(float(r.uniform(-1.0, 1.0)), float(r.uniform(0.0, 1.0)) * z.imag)
        draws.append((flow, xab, s, t, z, y))
    flow, xab, s, t, z, y = (np.array(column) for column in zip(*draws))
    g = cfg.flows(flow)
    xab = sampling.elements(cfg.shape, xab, 1.0)
    x, a, b = xab[:, 0], xab[:, 1], xab[:, 2]

    # every check of every instance at once: each residual with its scale, one batch per check
    xz = continue_exact(g, z, x)
    direct = continue_exact(g, y + z, x)
    gl, gr = left_companion(g), right_companion(g)
    ga = evaluate(g, t, a)
    resids = {
        "group_law": evaluate(g, s, evaluate(g, t, x)) - evaluate(g, s + t, x),
        "inverse": continue_exact(g, -z, xz) - x,
        "composition_same_side": continue_exact(g, y, xz) - direct,
        "semi_mult_left": evaluate(gl, t, b) @ ga - evaluate(g, t, b @ a),
        "semi_mult_right": ga @ evaluate(gr, t, b) - evaluate(g, t, a @ b),
    }
    scales = {"group_law": x.norm(), "inverse": x.norm(), "composition_same_side": np.maximum(direct.norm(), x.norm()),
              "semi_mult_left": a.norm() * b.norm(), "semi_mult_right": a.norm() * b.norm()}
    measured = {name: report.observe(name, resid.norm(), scales[name]) for name, resid in resids.items()}
    measured["three_lines"] = report.observe("three_lines", three_lines_check(g, x, z),
                                             np.maximum(x.norm(), xz.norm()))
    bounds = {c.name: c.bound for c in report.checks}
    per_instance = zip(*(ratios.tolist() for ratios in measured.values()))
    return [(name, i, m, bounds[name], m <= bounds[name])
            for i, values in zip(members, per_instance) for name, m in zip(measured, values)]


def _costs_verify(cfg: ScenarioConfig) -> list[Cost]:
    # no module, only the algebra's own blocks; inverse and composition_same_side reach 2 Im z;
    # instance i checks grid point i mod the grid size, so fewer instances than points leave some out;
    # an instance makes 90 dense operations: 38 norms, 2 eigendecompositions and 50 products
    dim, points = cfg.shape.dim, len(cfg.z_re) * len(cfg.z_im)
    return [(SIZE, dim, f"{_shape(cfg)} has dense size"),
            _growth("the inverse check", 2.0 * cfg.im_max(), cfg.nu_max()),
            (TIME, cfg.instances * 90 * _weight(cfg.shape),
             f"{_amount(cfg.instances)} instances of 90 dense operations on {_shape(cfg)} have time cost"),
            (("instance count", cfg.instances, " instances"), points,
             "verify checks one grid point per instance, so the z-grid needs")]


def _exp_converge(cfg: ScenarioConfig, report: ExitReport) -> tuple[list[tuple], dict]:
    r = sampling.rng(cfg.seed)
    g = cfg.flow(r)
    x = cfg.element if cfg.element is not None else sampling.random_element(r, cfg.shape, 1.0)
    # the widths in _batches of at most MAX_GRID_SIZE entries (_smear_batch): a width's dense size, and its two phase
    # tables of n_b x nodes per block at the largest count at max|z_im|, the narrowest or the widest width's
    entries = cfg.shape.dim + 2 * sum(cfg.shape) * max(
        admissible_nodes(cfg.nu_max(), r, cfg.im_max() * 1j) for r in (min(cfg.r_list), max(cfg.r_list)))
    batches = [cfg.r_list[b.start:b.stop] for b in _batches(len(cfg.r_list), entries)]
    # the smear errors at z = 0, their ratios and the approximants do not depend on z
    errs = dict(zip(cfg.r_list, np.concatenate(
        [(smear_oracle(g, x, np.array(rs), 0.0) - x).norm() for rs in batches]).tolist()))
    floor, top = RATIO_FLOOR * x.norm(), 1e-2 * x.norm()
    ratios = np.array([errs[2 * rr] / errs[rr] for rr in cfg.r_list
                       if 2 * rr in errs and errs[rr] <= top and min(errs[rr], errs[2 * rr]) > floor])
    # with no pair to read (one r, or an element the flow fixes) the check reads 0.0
    report.observe("convergence_ratio", np.maximum(0.2 - ratios, ratios - 0.3) if ratios.size else 0.0)
    # 16 approximants: at most 2**4 * MAX_FLAT_SIZE = MAX_GRID_SIZE entries
    ys = smear_oracle(g, x, min(cfg.r_list) * 2.0 ** np.arange(16), 0.0)
    rows: list[tuple] = []
    for z in cfg.z_grid():
        rows += [row for rs in batches for row in _smear_batch(g, x, z, rs, errs, report)]
        rescaled, nax = core_rescale(g, z, x, ys)
        # x_n = lam_n y_n carries |lam_n| norm(y_n), so this cap reads the rescaling's arithmetic
        report.observe("core_rescale_cap_x", rescaled.norm() - x.norm(), x.norm())
        # the continuation is applied to each x_n itself, not taken as lam_n alpha_z(y_n): that
        # would meet the cap by the choice of lam_n, and the check would no longer test the continuation
        report.observe("core_rescale_cap_continuation", continue_exact(g, z, rescaled).norm() - nax, nax)
        report.observe("core_rescale_convergence", (rescaled[-1] - x).norm())
    return rows, {}


def _smear_batch(g: FlowGenerator, x: AlgebraElement, z: complex, rs: list[float], errs: dict,
                 report: ExitReport) -> list[tuple]:
    """Observe quad_vs_oracle and norm_bound at ``z`` for the batch of widths ``rs``, and return its CSV rows.

    The batch is one quadrature call, at each width's admissible node count, and one closed-form smear, so each
    check takes one stacked norm.  Its stacks are freed on return, before the core rescaling forms its own."""
    r = np.array(rs)
    nodes = min_nodes(g, r, z)
    quads = _smear_quadratures(g, x, r, z, nodes)
    err_quad = (quads - smear_oracle(g, x, r, z)).norm()
    # math.exp width by width: numpy's exp rounds about 5 % of values to another last digit
    envelope = np.array([x.norm() * math.exp(rr * rr * z.imag * z.imag) for rr in rs])
    bound_rhs = envelope * (1.0 + 1e-8)
    report.observe("quad_vs_oracle", err_quad, envelope)
    report.observe("norm_bound", quads.norm(), bound_rhs)
    return [(z.real, z.imag, rr, count, err, errs[rr], rhs)
            for rr, count, err, rhs in zip(rs, nodes.tolist(), err_quad.tolist(), bound_rhs.tolist())]


def _costs_converge(cfg: ScenarioConfig) -> list[Cost]:
    # every z of the grid runs, so the costs are taken at max|z_im|
    nu, im = cfg.nu_max(), cfg.im_max()
    costs = [(SIZE, cfg.shape.dim, f"{_shape(cfg)} has dense size"),
             _growth("the continuation", im, nu)]
    nodes = 0
    for r in cfg.r_list:
        try:
            count = admissible_nodes(nu, r, complex(0.0, im))
        except (OverflowError, ValueError):  # the node budget is infinite, or nu_max itself is
            count = math.inf
        nodes += min(count, MAX_NODES)  # a count above the cap is refused on its own
        where = f"grid.r = {r!r} with max|z_im| = {im!r}"
        costs.append((NODES, count, f"{where} needs"))
        costs.append((GROWTH, (r * im) * (r * im),
                      f"the smear envelope exp(r^2 (Im z)^2) at {where} has growth exponent"))
    # dense operations: 55 once and 5 per r; per z, 132 for core_rescale and 10 per r, and the node sums, a
    # column of one each and a call's share (n^2 + 192 n + 256: one width's quadrature on 4001 nodes took up to
    # 192, 532 and 4833 ns a node at n = 2, 8 and 64, best of 7 x 200 on one BLAS thread, and is charged 225, 650
    # and 5824 ns). The rest: 10**4 per r, in the batch of smear errors at z = 0 (2 us at n = 2); 3 * 10**5 per
    # (z, r), a width's share of the quadrature batch (at n = 2, 193 us in all where no two widths share a node
    # count, charged 321 us; 20 us where they do); and 5 * 10**5 per z, for core_rescale's Python (a z-point with
    # one width took 445 us in all at n = 2, and is charged 512 us)
    points, widths = len(cfg.z_re) * len(cfg.z_im), len(cfg.r_list)
    ops = 55 + 5 * widths + points * (132 + 10 * widths)
    node = sum(n * n + 192 * n + 256 for n in cfg.shape)
    python = widths * 10**4 + points * (widths * 3 * 10**5 + 5 * 10**5)
    cost = ops * _weight(cfg.shape) + points * nodes * node + python
    costs.append((TIME, cost, f"{_amount(points)} z-grid points at {_amount(widths)} widths r with {_amount(nodes)}"
                              f" quadrature nodes, {_amount(ops)} dense operations on {_shape(cfg)}, have time cost"))
    return costs


def _exp_stone(cfg: ScenarioConfig, report: ExitReport) -> tuple[list[tuple], dict]:
    r = sampling.rng(cfg.seed)
    if cfg.flow_kind == "explicit":
        t_op = op_exp(ModuleOperator(cfg.h_left, 1))
    else:
        t_op = sampling.random_positive_operator(r, cfg.shape, cfg.module_rank, cond=COND)
    k = t_op.k
    u = SampledUnitaryGroup.from_positive(t_op)
    recovery = recover(u, 1.0)
    t_rec = recovery.t_op
    rows = list(recovery.residual_grid)
    report.observe("recovery_error", (t_rec - t_op).norm(), t_op.norm())
    report.observe("residual_grid", np.array([err for _, err in rows]))
    log_norm = op_log(t_op).norm()
    zs = np.array(cfg.z_grid())
    errs = (power(t_op.flat, 1j * zs) - power(t_rec.flat, 1j * zs)).norm()
    report.observe("continuation", errs, np.array([math.exp(abs(z.imag) * log_norm) for z in zs]))

    omega = sampling.random_state(r, cfg.shape)
    loc = localize(omega, k)
    vs = sampling.random_vector(r, cfg.shape, k, 20)  # v then w of each pair
    v, w = (ModuleVector(cfg.shape, k, [b[i::2] for b in vs.stacked]) for i in (0, 1))
    lv, norms = loc.apply(vs), vs.norm()
    lhs = np.sum(lv[1::2].conj() * lv[::2], axis=-1)  # vdot(L w, L v) per pair
    report.observe("gram_identity", np.abs(lhs - omega.value(inner(v, w))), np.maximum(1.0, norms[::2] * norms[1::2]))

    report.observe("induced_power", induced_power_check(loc, t_op, (0.5, 1j, 1 + 1j)))

    perturbed = t_op + 1e-3 * identity_operator(cfg.shape, k)
    report.observe("separating_detects", 1.0 if separating_check(t_op, perturbed, [omega]) else 0.0)
    return rows, {"recovery.json": recovery.as_dict()}


def _costs_stone(cfg: ScenarioConfig) -> list[Cost]:
    # log T is h_left at k = 1, or a random operator of norm at most ln(COND) / 2; 100 dense operations
    # for the recovery and the localization checks, and 3 per grid point
    k, nu = (1, cfg.h_left.norm()) if cfg.flow_kind == "explicit" else (cfg.module_rank, 0.5 * math.log(COND))
    return _costs_module(cfg, k, "T^(iz)", nu, 100, 3)


def _costs_module(cfg: ScenarioConfig, k: int, what: str, nu: float, once: int, per_point: int) -> list[Cost]:
    """The costs of stone and implemented: flattened factors, their grid of powers, the probe stack of the
    localization checks, the growth of ``what``, and ``once`` dense operations plus ``per_point`` per grid point."""
    flat = [k * n for n in cfg.shape]
    factors = sum(m * m for m in flat)
    probes = PROBES * sum(k * n * n for n in cfg.shape)
    ops = once + per_point * len(cfg.z_re) * len(cfg.z_im)
    return [(SIZE, factors, f"{_shape(cfg)} at module_rank {_amount(k)} has flattened blocks of"
                            f" size k n_b, so the factors sum_b (k n_b)^2 have dense size"),
            (SIZE, probes, f"{_shape(cfg)} at module_rank {_amount(k)} checks each block on"
                           f" {PROBES} probe vectors of k n_b^2 entries, so the probe stack has dense size"),
            _grid(cfg, factors),
            _growth(what, cfg.im_max(), nu),
            (TIME, ops * _weight(flat), f"{_amount(ops)} dense operations on the flattened blocks of"
                                        f" {_shape(cfg)} at module_rank {_amount(k)} have time cost")]


def _exp_tensor(cfg: ScenarioConfig, report: ExitReport) -> tuple[list[tuple], dict]:
    # each instance stacks its z-grid of tensor-square elements
    return _in_batches(cfg, report, len(cfg.z_re) * len(cfg.z_im) * cfg.shape.dim**2, _tensor_batch)


def _tensor_batch(cfg: ScenarioConfig, r: np.random.Generator, members: range, report: ExitReport) -> list[tuple]:
    """Draw the instances ``members`` in stream order, finish their flows and elements as one batch,
    observe both checks over the (z-grid x instances) batch, and return the CSV rows of each instance
    in turn: its commuting rows, then its tensor rows."""
    shape, norm = cfg.shape, cfg.flow_norm
    draws = [(sampling.draw_commuting(r, shape), sampling.draw_elements(r, shape, 1), sampling.draw_flow(r, shape),
              sampling.draw_flow(r, shape), sampling.draw_elements(r, shape, 1)) for _ in members]
    commuting, x, alpha, beta, y = (np.array(column) for column in zip(*draws))
    pair = CommutingPair(*sampling.commuting_flows(shape, commuting, norm))
    x, y = sampling.elements(shape, x, 1.0)[:, 0], sampling.elements(shape, y, 1.0)[:, 0]
    tf = tensor_flow(sampling.flows(shape, alpha, norm), sampling.flows(shape, beta, norm))
    grid = cfg.z_grid()
    zs = np.array(grid)[:, None]  # the grid's axis joins the batch ahead of the instances'
    commuting = report.observe("commuting_continuation", gamma_continuation_check(pair, zs, x))
    tensor = report.observe("tensor_continuation", tensor_continuation_check(tf, zs, x, y))
    return [(kind, i, z.real, z.imag, resid) for i, *per_kind in zip(members, commuting.T.tolist(), tensor.T.tolist())
            for kind, resids in zip(("commuting", "tensor"), per_kind) for z, resid in zip(grid, resids)]


def _costs_tensor(cfg: ScenarioConfig) -> list[Cost]:
    # the tensor square has blocks n_i n_j; its flow pairs two random flows of nu = 2 norm each. An instance
    # makes 34 + 20 dense operations per grid point on A's blocks, and 4 + 3 per point on the square's
    dim, points = cfg.shape.dim, len(cfg.z_re) * len(cfg.z_im)
    square = [a * b for a in cfg.shape for b in cfg.shape]
    each = (34 + 20 * points) * _weight(cfg.shape) + (4 + 3 * points) * _weight(square)
    return [(SIZE, dim**2, f"{_shape(cfg)} has dimension {_amount(dim)}, so A (x) A has dense size"),
            _grid(cfg, dim**2),
            _growth("the tensor flow", cfg.im_max(), 4.0 * cfg.flow_norm),
            (TIME, cfg.instances * each, f"{_amount(cfg.instances)} instances at {_amount(points)} grid points"
                                         f" each, on {_shape(cfg)} and its tensor square, have time cost")]


def _exp_implemented(cfg: ScenarioConfig, report: ExitReport) -> tuple[list[tuple], dict]:
    r = sampling.rng(cfg.seed)
    k = cfg.module_rank
    s_op = sampling.random_positive_operator(r, cfg.shape, k, cond=COND)
    t_op = sampling.random_positive_operator(r, cfg.shape, k, cond=COND)
    flow = ImplementedFlow(s_op, t_op, BlockCarrier.full(cfg.shape, k))
    x = sampling.random_operator(r, cfg.shape, k, 1.0)
    omega = sampling.random_state(r, cfg.shape)
    loc = localize(omega, k)
    grid = cfg.z_grid()
    resids = implemented_continuation_check(flow, grid, x)
    report.observe("continuation_formula", resids, max(1.0, x.norm()))
    rows = [("continuation_formula", z.real, z.imag, resid) for z, resid in zip(grid, resids.tolist())]
    resid = localized_middle_check(loc, s_op, x, t_op)
    report.observe("localized_middle", resid, max(1.0, s_op.norm() * x.norm() * t_op.norm()))
    rows.append(("localized_middle", 0.0, 0.0, resid))
    return rows, {}


def _costs_implemented(cfg: ScenarioConfig) -> list[Cost]:
    # nu = norm(log S) + norm(log T) <= ln(COND); 25 dense operations for S, T, x and the localized
    # middle product, and 7 per grid point
    return _costs_module(cfg, cfg.module_rank, "the implemented flow", math.log(COND), 25, 7)


@dataclass(frozen=True)
class Experiment:
    runner: Callable[[ScenarioConfig, ExitReport], tuple[list[tuple], dict]]
    columns: tuple[str, ...]
    description: str
    checks: dict[str, float]  # each check's bound, in report order; README.md says what each compares
    costs: Callable[[ScenarioConfig], list[Cost]]
    reads: tuple[str, ...]  # the config keys runner and costs read besides COMMON
    by_kind: dict[str, tuple[str, ...]] = field(default_factory=dict)  # and those read under each flow.kind


Z_KEYS = ("grid.z_re", "grid.z_im")
FLOW_KEYS = {"random": ("flow.norm",), "explicit": ("flow.h_left", "flow.h_right")}
EXPERIMENTS = {
    "verify": Experiment(_exp_verify, ("check", "instance", "measured", "bound", "passed"),
        "group laws, inverses, same-side composition, semi-multiplicativity, strip bound",
        dict.fromkeys(("composition_same_side", "group_law", "inverse", "semi_mult_left", "semi_mult_right",
                       "three_lines"), 1e-9),
        _costs_verify, ("flow.kind", *Z_KEYS, "instances"), FLOW_KEYS),
    "converge": Experiment(_exp_converge,
        ("z_re", "z_im", "r", "nodes", "err_quad_vs_oracle", "err_smear_vs_x", "bound_rhs"),
        "smearing quadrature vs closed form and norm bound at every z, convergence rate, core rescaling",
        {"quad_vs_oracle": 1e-8, "norm_bound": 1.0, "convergence_ratio": 0.0, "core_rescale_cap_x": 1e-12,
         "core_rescale_cap_continuation": 1e-12, "core_rescale_convergence": 1e-6},
        _costs_converge, ("flow.kind", "element", "grid.r", *Z_KEYS), FLOW_KEYS),
    "stone": Experiment(_exp_stone, ("t", "residual"),
        "generator recovery round trip, continuation, localization and separation",
        {"recovery_error": 1e-8, "residual_grid": 1e-8, "continuation": 1e-8, "gram_identity": 1e-10,
         "induced_power": 1e-8, "separating_detects": 0.0},
        _costs_stone, ("flow.kind", *Z_KEYS), {"random": ("module_rank",), "explicit": ("flow.h_left",)}),
    "tensor": Experiment(_exp_tensor, ("kind", "instance", "z_re", "z_im", "residual"),
        "commuting-pair product continuation and tensor-product continuation",
        {"commuting_continuation": 1e-8, "tensor_continuation": 1e-8},
        _costs_tensor, ("flow.norm", *Z_KEYS, "instances")),
    "implemented": Experiment(_exp_implemented, ("check", "z_re", "z_im", "residual"),
        "implemented-flow continuation formula and localized middle products",
        {"continuation_formula": 1e-8, "localized_middle": 1e-9},
        _costs_implemented, (*Z_KEYS, "module_rank")),
}


def run(config: ScenarioConfig, out_dir: str | Path | None = None, quiet: bool = False) -> ExitReport:
    """Execute a scenario; writes artifacts and returns the report."""
    out = Path(out_dir) if out_dir is not None else Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    experiment = EXPERIMENTS[config.experiment]
    report = ExitReport(config.experiment, config.seed,
                        [Check(name, 0.0, bound) for name, bound in experiment.checks.items()])
    rows, extra_files = experiment.runner(config, report)
    unobserved = [c.name for c in report.checks if c.name not in report.observed]
    if unobserved:  # a check no residual reached would pass at 0.0 without testing anything
        raise RuntimeError(f"{config.experiment} observed no residual for {', '.join(unobserved)}")
    _write_csv(out / f"{config.experiment}.csv", experiment.columns, rows)
    for name, payload in {"report.json": report.as_dict(), **extra_files}.items():
        _write_json(out / name, payload)
    if not quiet:
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: measured {c.measured:.3e} bound {c.bound:.3e}")
        print(f"{config.experiment}: {'all checks passed' if report.passed else 'TOLERANCE EXCEEDED'}")
    return report


def _write_error_report(out: Path, config: ScenarioConfig, exc: Exception) -> None:
    """``report.json`` of a run that a library error broke off."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", {
        "experiment": config.experiment,
        "seed": config.seed,
        "passed": False,
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })


def list_experiments() -> str:
    return "\n".join(
        ["available experiments:"]
        + [f"  {name:<12} {experiment.description}" for name, experiment in EXPERIMENTS.items()]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cstarflow", description="Flow experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (default: config output field)")
    p_run.add_argument("--quiet", action="store_true")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return 0

    try:
        raw = _read(args.config)
        config, problems = validate(raw)
    except ConfigInvalidError as exc:
        problems = exc.problems
    if problems:
        for p in problems:
            print(f"CONFIG_INVALID: {p}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("ok")
        print(json.dumps(resolved_defaults(raw), indent=2, sort_keys=True))
        return 0
    try:
        report = run(config, args.out, args.quiet)
    except (CstarflowError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"NUMERICAL_BREAKDOWN: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_error_report(Path(args.out if args.out is not None else config.output), config, exc)
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
