"""CLI harness: config validation, experiment runs, determinism."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflow.algebra import AlgebraElement, BlockShape, HermitianElement, identity, stack
from cstarflow.cli import (
    COMMON,
    COND,
    EXPERIMENTS,
    GRID,
    GROWTH,
    KEYS,
    Check,
    ExitReport,
    MAX_COST,
    MAX_FLAT_SIZE,
    MAX_GRID_SIZE,
    MAX_GROWTH,
    NODES,
    SIZE,
    TIME,
    ScenarioConfig,
    main,
    resolved_defaults,
    run,
    validate,
)
from cstarflow.continuation import MAX_NODES, STRIP_SIZE, SmearingPlan, smear_oracle, smear_quadrature
from cstarflow.errors import BranchAmbiguityError, ConfigInvalidError, NotAGroupError
from cstarflow.flows import FlowGenerator, in_eigenbasis
from cstarflow.hilbmod import identity_operator, op_log
from cstarflow.sampling import random_element, random_hermitian, random_positive_operator, rng
from cstarflow.serialize import element_to_payload
from cstarflow.stone import PROBES, PositiveFunctional

from conftest import counting_eigvalsh, load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
WORKLOADS = ROOT / "benchmarks" / "workloads.py"


DIAG = {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}


def _nest(values: dict) -> dict:
    """A config from dotted keys."""
    raw: dict = {}
    for key, v in values.items():
        section, _, name = key.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[name] = v
    return raw


def _declared(name: str, kind: str) -> set[str]:
    experiment = EXPERIMENTS[name]
    return {*COMMON, *experiment.reads, *experiment.by_kind.get(kind, ())}


def _workload_specs() -> list[dict]:
    # exec the source rather than import it, so nothing is written next to it
    namespace = {"__name__": "benchmark_workloads"}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), namespace)
    return [
        raw
        for name in namespace["WORKLOADS"]
        for seed in (1, 2)
        for spec in namespace["scenario_specs"](name, seed, CONFIG_DIR)
        for raw in spec["configs"]
    ]


class TestValidate:
    def test_empty_config_names_missing_fields(self):
        _, problems = validate({})
        joined = " ".join(problems)
        for field in ("experiment", "seed", "shape"):
            assert field in joined

    def test_unknown_experiment_lists_choices(self):
        _, problems = validate({"experiment": "banana", "seed": 1, "shape": [2]})
        assert any("banana" in p and "verify" in p for p in problems)

    @pytest.mark.parametrize("name", [["verify"], {"verify": 1}, 3])
    def test_non_string_experiment_lists_choices(self, name):
        _, problems = validate({"experiment": name, "seed": 1, "shape": [2]})
        assert problems == [f"unknown experiment {name!r}; choose one of"
                            " verify, converge, stone, tensor, implemented"]

    def test_valid_config_resolves(self):
        config, problems = validate({"experiment": "verify", "seed": 1, "shape": [2, 3]})
        assert problems == []
        assert config.r_list == [0.5, 1.0, 2.0, 4.0]
        assert config.instances == 25

    def test_bad_grid_rejected(self):
        _, problems = validate(
            {"experiment": "verify", "seed": 1, "shape": [2], "grid": {"r": [-1.0]}}
        )
        assert any("grid.r" in p for p in problems)

    def test_nonconforming_payload_rejected(self):
        raw = {
            "experiment": "converge",
            "seed": 1,
            "shape": [3],
            "flow": {"kind": "explicit", "h_left": {"blocks": [[[1.0, 0.0]]]}},
        }
        _, problems = validate(raw)
        assert any("conform" in p for p in problems)

    def test_non_hermitian_payload_rejected(self):
        raw = {
            "experiment": "converge",
            "seed": 1,
            "shape": [2],
            "flow": {
                "kind": "explicit",
                "h_left": {
                    "blocks": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
                },
            },
        }
        _, problems = validate(raw)
        assert any("Hermitian" in p for p in problems)

    def test_stone_explicit_needs_rank_one(self):
        raw = {
            "experiment": "stone",
            "seed": 1,
            "shape": [2],
            "module_rank": 2,
            "flow": {
                "kind": "explicit",
                "h_left": {
                    "blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
                },
            },
        }
        _, problems = validate(raw)
        assert any("module_rank" in p for p in problems)

    @pytest.mark.parametrize(
        "extra",
        [
            {"grid": {"r": [float("nan")]}},
            {"grid": {"z_re": [0.0, float("inf")]}},
            {"flow": {"kind": "random", "norm": float("-inf")}},
            {
                "flow": {
                    "kind": "explicit",
                    "h_left": {"blocks": [[[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
                }
            },
        ],
    )
    def test_non_finite_rejected(self, extra):
        config, problems = validate({"experiment": "converge", "seed": 1, "shape": [2], **extra})
        assert config is None
        assert any("non-finite" in p for p in problems)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", True),
            ("shape", [True]),
            ("instances", True),
            ("module_rank", True),
            # booleans where a float is required
            ("grid", {"r": [1.0, True]}),
            ("flow", {"kind": "random", "norm": True}),
            ("grid", {"r": [True]}),
            ("grid", {"z_re": [True]}),
            ("grid", {"z_im": [False]}),
            ("grid", {"z_re": [False, 0.0]}),
        ],
    )
    def test_boolean_for_integer_rejected(self, field, value):
        raw = {"experiment": "verify", "seed": 1, "shape": [2], field: value}
        config, problems = validate(raw)
        assert config is None
        assert problems

    @pytest.mark.parametrize(
        "grid, flow, needle",
        [
            ({"r": [0.0001], "z_im": [1.0]}, {}, "grid.r = 0.0001 with max|z_im| = 1.0 needs 76419 "),
            # 3845 nodes are under the cap, but the envelope exp(r^2 (Im z)^2) leaves the float range
            ({"r": [1000.0], "z_im": [1.0]}, {},
             "at grid.r = 1000.0 with max|z_im| = 1.0 has growth exponent 1000000.0, above the growth budget"),
            # a node count is no longer a key: the run takes the admissible count
            ({"nodes": 1000000000}, {}, "unknown key grid.nodes"),
            # nu_max / (2r) is past the float range, so the node count is infinite
            ({"r": [1e-308], "z_im": [0.0]}, {}, "grid.r = 1e-308 with max|z_im| = 0.0 needs inf "),
            # the payload's norm overflows, so nu_max and the node count are infinite
            (
                {"r": [1.0], "z_im": [0.0]},
                {"kind": "explicit", "h_left": {"blocks": [[[1e308, 0.0], [1e308, 0.0], [1e308, 0.0], [-1e308, 0.0]]]}},
                "grid.r = 1.0 with max|z_im| = 0.0 needs inf ",
            ),
            # an explicit flow's budget comes from its payload norms: 2 * norm(diag(1, -1))
            (
                {"r": [0.0001], "z_im": [0.0]},
                {"kind": "explicit", "h_left": {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}},
                "grid.r = 0.0001 with max|z_im| = 0.0 needs 38223 ",
            ),
        ],
        ids=["tiny_r", "huge_r", "huge_nodes", "overflowing_r", "overflowing_flow", "explicit_payload"],
    )
    def test_node_budget_rejected(self, grid, flow, needle):
        raw = {"experiment": "converge", "seed": 1, "shape": [2], "grid": grid, "flow": flow}
        config, problems = validate(raw)
        assert config is None
        assert any(needle in p for p in problems)

    def test_node_budget_checks_every_grid_point(self):
        # converge runs every z of its grid, so every r is budgeted at max|z_im|, in any order
        raw = {"experiment": "converge", "seed": 1, "shape": [2],
               "grid": {"r": [0.05, 0.0001], "z_im": [0.0, 0.0]}}
        # nu_max = 4: r = 0.05 asks for 177 nodes, r = 0.0001 for 76419
        assert validate(raw)[1] == [f"grid.r = 0.0001 with max|z_im| = 0.0 needs 76419 quadrature nodes,"
                                    f" above the cap of {MAX_NODES}"]
        for z_im in ([0.0, -0.5], [-0.5, 0.0]):
            _, problems = validate({**raw, "grid": {"r": [0.05, 0.0001], "z_im": z_im}})
            assert len(problems) == 1 and problems[0].startswith("grid.r = 0.0001 with max|z_im| = 0.5 needs ")
        # a z_im past every budget is refused wherever it sits in the grid
        _, problems = validate({**raw, "grid": {"r": [0.5], "z_im": [0.0, 1e3]}})
        assert (f"the continuation reaches |Im z| = 1000.0 at nu = 4.0, growth exponent 4000.0,"
                f" above the growth budget of {MAX_GROWTH}") in problems

    def test_counts_above_1e15_print_as_three_digits(self):
        # a node count near r = 1e-300 has 301 digits, and a dense size from a huge shape is past the float range
        _, problems = validate({"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [1e-300]}})
        assert problems == [f"grid.r = 1e-300 with max|z_im| = 0.5 needs 7.64e+300 quadrature nodes,"
                            f" above the cap of {MAX_NODES}"]
        _, problems = validate({"experiment": "verify", "seed": 1, "shape": [10**200]})
        assert problems[0].endswith(f"has dense size 1e+400, above the budget of {MAX_FLAT_SIZE}")
        # an instance of verify at [2] costs 90 (2^3 + 128 2^2 + 16^3) = 415440: up to 1e15 prints in full, more does not
        for instances, count, cost in ((10**9, "1000000000", "415440000000000"),
                                       (25 * 10**13, "250000000000000", "1.04e+20"),
                                       (10**17, "1e+17", "4.15e+22"), (123456789 * 10**9, "1.23e+17", "5.13e+22")):
            _, problems = validate({"experiment": "verify", "seed": 1, "shape": [2], "instances": instances})
            assert problems == [f"{count} instances of 90 dense operations on shape [2] have time cost {cost},"
                                f" above the time budget of {MAX_COST}"]

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_every_count_of_a_refusal_is_short(self, name):
        # the echoed shape, the instance count and every count derived from them print as %.3g does
        raw = {"experiment": name, "seed": 1, "shape": [10**200]}
        if "instances" in EXPERIMENTS[name].reads:
            raw["instances"] = 10**300
        _, problems = validate(raw)
        budgets = "|".join(budget for budget, _, _ in (SIZE, GRID, NODES, GROWTH, TIME))
        assert problems
        for line in problems:
            assert not re.search(r"\d{17}", line), line
            assert re.search(f"above the ({budgets}|instance count) of", line), line

    @pytest.mark.parametrize(
        "shape, k, size",
        [([100000], 1, 10**10), ([576], 1, 576**2), ([300, 300, 300], 1, 270000)],
    )
    def test_size_budget_rejected(self, shape, k, size):
        # verify uses no module: the rule sum_b n_b^2, and a module_rank is refused;
        # stone counts its residual matrices instead (test_size_budget_counts_the_stone_residuals)
        raw = {"experiment": "verify", "seed": 1, "shape": shape}
        assert validate({**raw, "module_rank": k})[1] == ["verify with flow.kind random does not read module_rank"]
        config, problems = validate(raw)
        assert config is None and size > MAX_FLAT_SIZE
        assert any(f"dense size {size}, above the budget of {MAX_FLAT_SIZE}" in p
                   for p in problems)

    def test_size_budget_counts_the_tensor_square(self):
        # tensor builds blocks n_i n_j, so [64] has size 4096^2, not 64^2
        _, problems = validate({"experiment": "tensor", "seed": 1, "shape": [64]})
        assert any(f"dense size {4096**2}, above the budget" in p for p in problems)
        assert validate({"experiment": "tensor", "seed": 1, "shape": [16, 16]})[1] == []

    def test_size_budget_counts_the_implemented_factors(self, capsys, tmp_path):
        # implemented holds what stone does: its flattened factors, sum_b (k n_b)^2, and a probe stack of
        # PROBES k n_b^2 entries per block; [64] at k = 9 is over the budget on both counts
        raw = {"experiment": "implemented", "seed": 1, "shape": [64], "module_rank": 9}
        assert validate(raw)[1] == [
            f"shape [64] at module_rank 9 has flattened blocks of size k n_b, so the factors"
            f" sum_b (k n_b)^2 have dense size {576**2}, above the budget of {MAX_FLAT_SIZE}",
            f"shape [64] at module_rank 9 checks each block on {PROBES} probe vectors of k n_b^2"
            f" entries, so the probe stack has dense size {PROBES * 9 * 64**2}, above the budget of {MAX_FLAT_SIZE}",
        ]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err and all(line.startswith("CONFIG_INVALID: ") for line in err.splitlines())
        assert not (tmp_path / "out").exists()
        # [64] at k = 4 has factors 256^2 and a probe stack of 10 * 4 * 64^2 entries (the run is
        # implemented64k4 in cli_cases.json)
        assert validate({**raw, "module_rank": 4})[1] == []
        assert validate({**raw, "shape": [16, 16], "module_rank": 1})[1] == []

    @pytest.mark.parametrize(
        "shape, k", [([256], 1), ([256, 256, 256, 256], 1), ([512], 1), ([64], 9)]
    )
    def test_size_budget_admits_the_limit(self, shape, k):
        # sum_b n_b^2 = 65536, 262144 = MAX_FLAT_SIZE and 262144 again; verify
        # builds no module, so it refuses module_rank 9 and leaves [64] at 4096.
        # 9 instances, one per point of the default grid, are within the time budget
        raw = {"experiment": "verify", "seed": 1, "shape": shape, "instances": 9}
        assert validate({**raw, "module_rank": k})[1] == ["verify with flow.kind random does not read module_rank"]
        assert validate(raw)[1] == []

    def test_grid_budget_counts_the_stacked_grid(self, capsys, tmp_path):
        # tensor stacks dim(A)^2 = 2**18 entries per grid point at [16, 16]
        raw = {"experiment": "tensor", "seed": 1, "shape": [16, 16],
               "grid": {"z_re": [-1.0, 0.0, 1.0, 2.0, 3.0], "z_im": [-0.5, 0.0, 0.5, 1.0]}}
        assert validate(raw)[1] == [
            f"the z-grid of 20 points at stacked dense size {2**18} per point holds"
            f" {20 * 2**18} entries, above the grid budget of {MAX_GRID_SIZE}"
        ]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err and all(line.startswith("CONFIG_INVALID: ") for line in err.splitlines())
        assert not (tmp_path / "out").exists()
        # 16 points is exactly the budget; the default grid has 9
        square = {"z_re": [0.0, 1.0, 2.0, 3.0], "z_im": [0.0, 0.5, 1.0, 1.5]}
        assert validate({**raw, "grid": square})[1] == []
        # implemented stacks D = 512 entries per point at [16, 16]
        wide = {"z_re": list(range(100)), "z_im": list(range(90))}
        raw = {"experiment": "implemented", "seed": 1, "shape": [16, 16], "grid": wide}
        assert validate(raw)[1] == [
            f"the z-grid of 9000 points at stacked dense size 512 per point holds"
            f" 4608000 entries, above the grid budget of {MAX_GRID_SIZE}",
            f"the implemented flow reaches |Im z| = 89.0 at nu = {math.log(COND)!r}, growth"
            f" exponent {89.0 * math.log(COND)!r}, above the growth budget of {MAX_GROWTH}",
        ]
        # the other experiments stack no grid; z_im up to 89 still leaves the float range
        assert validate({**raw, "experiment": "verify", "instances": 9000})[1] == [
            "the inverse check reaches |Im z| = 178.0 at nu = 4.0, growth exponent 712.0,"
            f" above the growth budget of {MAX_GROWTH}"
        ]

    def test_size_budget_counts_the_stone_residuals(self, capsys, tmp_path):
        # stone holds its flattened factors, sum_b (k n_b)^2, and checks each
        # block on PROBES probe vectors of k n_b^2 entries; [64] at k = 9 is
        # over the budget on both counts
        raw = {"experiment": "stone", "seed": 1, "shape": [64], "module_rank": 9}
        _, problems = validate(raw)
        assert problems == [
            f"shape [64] at module_rank 9 has flattened blocks of size k n_b, so the factors"
            f" sum_b (k n_b)^2 have dense size {576**2}, above the budget of {MAX_FLAT_SIZE}",
            f"shape [64] at module_rank 9 checks each block on {PROBES} probe vectors of k n_b^2"
            f" entries, so the probe stack has dense size {PROBES * 9 * 64**2},"
            f" above the budget of {MAX_FLAT_SIZE}",
        ]
        # [128] at k = 2 has factors 256^2, but its probe stack is too large
        oversized = {**raw, "shape": [128], "module_rank": 2}
        assert validate(oversized)[1] == [
            f"shape [128] at module_rank 2 checks each block on {PROBES} probe vectors of k n_b^2"
            f" entries, so the probe stack has dense size {PROBES * 2 * 128**2},"
            f" above the budget of {MAX_FLAT_SIZE}"
        ]
        for case in (raw, oversized):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(case))
            for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err and all(line.startswith("CONFIG_INVALID: ") for line in err.splitlines())
            assert not (tmp_path / "out").exists()
        # the gns workload, [16] at k = 2, and [64] at k = 4: factors 256^2, probes 10 * 4 * 64^2
        assert validate({**raw, "shape": [10, 6], "module_rank": 2})[1] == []
        assert validate({**raw, "shape": [16], "module_rank": 2})[1] == []
        assert validate({**raw, "module_rank": 4})[1] == []

    def test_growth_budget_names_z_and_nu(self):
        # log T of a random stone operator has norm at most ln(COND) / 2
        _, problems = validate({"experiment": "stone", "seed": 1, "shape": [2], "grid": {"z_im": [400]}})
        nu = 0.5 * math.log(COND)
        assert problems == [f"T^(iz) reaches |Im z| = 400.0 at nu = {nu!r}, growth exponent"
                            f" {400.0 * nu!r}, above the growth budget of {MAX_GROWTH}"]
        # the smear envelope exp(r^2 (Im z)^2) is a factor of its own, next to the continuation
        _, problems = validate({"experiment": "converge", "seed": 1, "shape": [2],
                                "grid": {"r": [18.0, 32.0], "z_im": [1.0]}})
        assert problems == ["the smear envelope exp(r^2 (Im z)^2) at grid.r = 32.0 with max|z_im| = 1.0 has"
                            f" growth exponent 1024.0, above the growth budget of {MAX_GROWTH}"]
        assert math.isfinite(math.exp(MAX_GROWTH) ** 2)

    @pytest.mark.parametrize(
        "experiment, grid",
        [
            ("stone", {"z_im": [-100.0, 100.0]}),
            ("converge", {"r": [18.0], "z_im": [1.0]}),
            ("verify", {"z_im": [-44.0, 44.0]}),
            ("tensor", {"z_im": [-44.0, 44.0]}),
            ("implemented", {"z_im": [-51.0, 51.0]}),
        ],
    )
    def test_growth_budget_admits_configs_that_run_without_overflow(self, experiment, grid, capfd,
                                                                    tmp_path):
        # just inside the budget: the run ends in a verdict, with nothing on stderr; verify
        # needs an instance for each of its 6 grid points
        instances = {"verify": {"instances": 6}, "tensor": {"instances": 2}}.get(experiment, {})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": experiment, "seed": 1, "shape": [2], "grid": grid,
                                   **instances}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) in (0, 1)
        assert capfd.readouterr().err == ""

    def test_time_budget_counts_instances(self):
        # an instance of verify at [2] makes 90 dense operations of weight 2^3 + 128 2^2 + 16^3: 415440
        raw = {"experiment": "verify", "seed": 1, "shape": [2], "instances": 409204}
        assert validate(raw)[1] == []
        assert validate({**raw, "instances": 409205})[1] == [
            f"409205 instances of 90 dense operations on shape [2] have time cost 170000125200,"
            f" above the time budget of {MAX_COST}"]
        # tensor at [2] weighs its 9 grid points per instance: 34 + 20 * 9 operations of weight 4616 on A
        # and 4 + 3 * 9 of weight 4^3 + 128 4^2 + 16^3 = 6208 on the tensor square, 1180272
        raw = {**raw, "experiment": "tensor", "instances": 144034}
        assert validate(raw)[1] == []
        assert validate({**raw, "instances": 144035})[1] == [
            "144035 instances at 9 grid points each, on shape [2] and its tensor square, have time cost"
            f" 170000477520, above the time budget of {MAX_COST}"]

    @pytest.mark.parametrize("experiment", ["tensor", "implemented"])
    def test_explicit_flow_refused_where_ignored(self, experiment):
        payload = {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}
        raw = {"experiment": experiment, "seed": 1, "shape": [2],
               "flow": {"kind": "explicit", "h_left": payload}}
        assert validate(raw)[1] == [f"{experiment} does not read flow.kind", f"{experiment} does not read flow.h_left"]

    @pytest.mark.parametrize("flow", [{}, {"kind": "random"}], ids=["no_kind", "random_kind"])
    @pytest.mark.parametrize("key", ["h_left", "h_right"])
    def test_flow_payload_needs_explicit_kind(self, flow, key):
        # a random flow would run in the payload's place
        payload = {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}
        raw = {"experiment": "verify", "seed": 1, "shape": [2], "flow": {**flow, key: payload}}
        assert validate(raw)[1] == [f"verify with flow.kind random does not read flow.{key}"]

    def test_unknown_flow_kind_is_the_one_problem(self):
        # under a misspelled kind, the flow keys of every kind count as read
        for flow in ({"kind": "Random", "norm": 1.0}, {"kind": "Explicit", "h_left": DIAG}):
            raw = {"experiment": "verify", "seed": 1, "shape": [2], "flow": flow}
            assert validate(raw)[1] == [f"unknown flow kind {flow['kind']!r}"]

    def test_zero_element_refused(self):
        zero = {"blocks": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        raw = {"experiment": "converge", "seed": 1, "shape": [2], "element": zero}
        assert validate(raw)[1] == ["element payload is zero, and the checks divide by its norm"]
        tiny = {"blocks": [[[0.0, 0.0], [1e-300, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        assert validate({**raw, "element": tiny})[1] == []

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        norm=st.floats(0.1, 10.0),
        kind=st.sampled_from(["random", "left", "pair"]),
        k=st.integers(1, 2),
    )
    def test_nu_is_the_one_the_run_meets(self, seed, dims, norm, kind, k):
        r = rng(seed)
        shape = BlockShape(dims)
        flow = {"kind": "random", "norm": norm}
        if kind != "random":
            h_left, h_right = (element_to_payload(random_hermitian(r, shape, norm).value) for _ in range(2))
            flow = {"kind": "explicit", "h_left": h_left, **({"h_right": h_right} if kind == "pair" else {})}
        cfg, problems = validate({"experiment": "verify", "seed": seed, "shape": dims, "flow": flow})
        assert problems == []
        assert cfg.nu_max() == pytest.approx(cfg.flow(rng(seed)).generator_norm(), rel=1e-12)
        # stone and implemented draw with cond = COND: norm(log T) <= ln(COND) / 2
        log_norm = op_log(random_positive_operator(r, shape, k, cond=COND)).norm()
        assert log_norm <= 0.5 * math.log(COND) + 1e-12

    def test_bundled_and_workload_configs_validate(self):
        raws = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
        raws += _workload_specs()
        assert len(raws) > 5
        for raw in raws:
            assert validate(raw)[1] == [], raw

    @pytest.mark.parametrize("field", ["flow", "grid"])
    def test_non_object_section_rejected(self, field):
        _, problems = validate({"experiment": "verify", "seed": 1, "shape": [2], field: 5})
        assert any(field in p for p in problems)

    @pytest.mark.parametrize(
        "extra, problem",
        [
            ({"instanses": 5}, "unknown key instanses; did you mean instances?"),
            ({"grd": {}}, "unknown key grd; did you mean grid?"),
            ({"flow": {"nrm": 1.0}}, "unknown key flow.nrm; did you mean flow.norm?"),
            ({"grid": {"node": 64}}, "unknown key grid.node; did you mean grid.z_re?"),
            ({"qqqqqq": 1}, "unknown key qqqqqq"),
        ],
    )
    def test_unknown_key_names_the_nearest(self, extra, problem):
        config, problems = validate({"experiment": "verify", "seed": 1, "shape": [2], **extra})
        assert config is None and problems == [problem]

    @pytest.mark.parametrize(
        "grid, problem",
        [({"nodes": 64}, "unknown key grid.nodes; did you mean grid.z_re?"),
         ({"t0": 1.0}, "unknown key grid.t0; did you mean grid.r?")],
    )
    def test_removed_keys_are_unknown(self, grid, problem, capsys, tmp_path):
        raw = {"experiment": "converge", "seed": 1, "shape": [2], "grid": grid}
        assert validate(raw)[1] == [problem]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == f"CONFIG_INVALID: {problem}\n"

    @pytest.mark.parametrize(
        "raw, problems",
        [
            ({"experiment": None, "seed": 1, "shape": [2]},
             ["unknown experiment None; choose one of verify, converge, stone, tensor, implemented"]),
            ({"experiment": "verify", "seed": None, "shape": [2]}, ["seed must be an integer"]),
            ({"experiment": "verify", "seed": 1, "shape": None}, ["shape must be a list of integers"]),
            ({"experiment": "converge", "seed": 1, "shape": [2], "grid.r": [1.0]},
             ["unknown key grid.r; did you mean grid.r?"]),
        ],
        ids=["null_experiment", "null_seed", "null_shape", "dotted_top_level_key"],
    )
    def test_null_or_misplaced_key_refused(self, raw, problems):
        # a null required key used to end in a traceback, or to run unseeded; a
        # dotted key belongs inside its section
        assert validate(raw) == (None, problems)

    def test_echoed_config_validates_and_echoes_unchanged(self):
        raws = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
        raws += _workload_specs()
        for raw in raws:
            echoed = resolved_defaults(raw)
            assert validate(echoed)[1] == [], raw
            assert resolved_defaults(echoed) == echoed

    def test_load_config_raises_with_problems(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "nope"}))
        with pytest.raises(ConfigInvalidError):
            load_config(bad)


# valid small values of each key a config may give; payloads and flow.kind are drawn apart
SMALL = {
    "seed": st.integers(0, 2**31),
    "output": st.sampled_from(["out", "runs/a"]),
    "flow.norm": st.floats(0.1, 2.0),
    "grid.r": st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
    "grid.z_re": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    "grid.z_im": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    "instances": st.integers(9, 12),  # at least the 9 points of the largest grid drawn
    "module_rank": st.integers(1, 2),
}


FIELD_KEYS = {k.field: key for key, k in KEYS.items()}


class RecordingConfig(ScenarioConfig):
    """A ScenarioConfig that records the config key of every field read from it."""

    def __getattribute__(self, name):
        if name in FIELD_KEYS:
            object.__getattribute__(self, "read").add(FIELD_KEYS[name])
        return object.__getattribute__(self, name)


# one small run of each experiment under each flow kind it reads
EACH_RUN = pytest.mark.parametrize(
    "name, extra",
    [
        ("verify", {"instances": 9}),
        ("verify", {"instances": 9, "flow": {"kind": "explicit", "h_left": DIAG}}),
        ("converge", {"grid": {"r": [1.0, 2.0], "z_im": [0.0, 0.5]}}),
        ("converge", {"grid": {"r": [1.0, 2.0]}, "flow": {"kind": "explicit", "h_left": DIAG}}),
        ("stone", {}),
        ("stone", {"flow": {"kind": "explicit", "h_left": DIAG}}),
        ("tensor", {"instances": 1}),
        ("implemented", {}),
    ],
    ids=["verify_random", "verify_explicit", "converge_random", "converge_explicit",
         "stone_random", "stone_explicit", "tensor", "implemented"],
)


class TestReadSets:
    @EACH_RUN
    def test_declared_keys_are_the_keys_read(self, name, extra, tmp_path):
        # costs and the whole run read exactly the declared keys, through the ScenarioConfig fields
        config, problems = validate({"experiment": name, "seed": 1, "shape": [2], "output": str(tmp_path),
                                     **extra})
        assert problems == []
        recording = RecordingConfig(**{f.name: getattr(config, f.name) for f in dataclasses.fields(config)})
        recording.read = set()
        EXPERIMENTS[name].costs(recording)
        assert run(recording, quiet=True).passed
        assert recording.read == _declared(name, config.flow_kind)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(list(EXPERIMENTS)), kind=st.sampled_from(["random", "explicit"]),
           dims=st.lists(st.integers(1, 3), min_size=1, max_size=2), seed=st.integers(0, 2**31))
    def test_read_set_configs_validate_and_other_keys_are_refused(self, data, name, kind, dims, seed):
        reads = _declared(name, kind)
        r, shape = rng(seed), BlockShape(dims)

        def small(key):
            if key == "flow.kind":
                return kind
            if key in ("flow.h_left", "flow.h_right"):
                return element_to_payload(random_hermitian(r, shape, 1.0).value)
            if key == "element":
                return element_to_payload(random_element(r, shape, 1.0))
            return data.draw(SMALL[key], label=key)

        # flow.kind explicit and its h_left payload are given whenever they are read
        required = {"experiment", "shape", "seed", *({"flow.kind"} if kind == "explicit" else ()), "flow.h_left"}
        values = {"experiment": name, "shape": dims}
        values.update({key: small(key) for key in sorted(reads - {"experiment", "shape"})
                       if key in required or data.draw(st.booleans(), label=f"give {key}")})
        raw = _nest(values)
        assert validate(raw)[1] == []
        echoed = resolved_defaults(raw)
        assert validate(echoed)[1] == [] and resolved_defaults(echoed) == echoed
        key = data.draw(st.sampled_from(sorted(set(KEYS) - reads)), label="unread key")
        problems = validate(_nest({**values, key: small(key)}))[1]
        assert len(problems) == 1 and problems[0].startswith(name) and problems[0].endswith(f" does not read {key}")

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ({"experiment": "stone", "instances": 5}, "stone with flow.kind random does not read instances"),
            ({"experiment": "implemented", "flow": {"norm": 1.0}}, "implemented does not read flow.norm"),
            ({"experiment": "verify", "module_rank": 1}, "verify with flow.kind random does not read module_rank"),
            ({"experiment": "converge", "instances": 5}, "converge with flow.kind random does not read instances"),
            ({"experiment": "tensor", "flow": {"kind": "random"}}, "tensor does not read flow.kind"),
            ({"experiment": "verify", "flow": {"kind": "explicit", "h_left": DIAG, "norm": 1.0}},
             "verify with flow.kind explicit does not read flow.norm"),
            ({"experiment": "stone", "module_rank": 1, "flow": {"kind": "explicit", "h_left": DIAG}},
             "stone with flow.kind explicit does not read module_rank"),
            ({"experiment": "verify", "flow": {"h_left": DIAG}},
             "verify with flow.kind random does not read flow.h_left"),
            ({"experiment": "verify", "instances": 2},
             "verify checks one grid point per instance, so the z-grid needs 9 instances,"
             " above the instance count of 2"),
        ],
        ids=["stone_instances", "implemented_norm", "verify_rank", "converge_instances", "tensor_kind",
             "explicit_verify_norm", "explicit_stone_rank", "random_verify_h_left", "verify_two_instances"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_refusal_names_the_experiment_and_the_key(self, raw, problem, command, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "shape": [2], **raw}))
        argv = [command, str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"CONFIG_INVALID: {problem}\n"
        assert not (tmp_path / "out").exists()


def _small_run(name: str, extra: dict, out: Path) -> ScenarioConfig:
    config, problems = validate({"experiment": name, "seed": 1, "shape": [2], "output": str(out), **extra})
    assert problems == []
    return config


# residual and scale of one observe call: each a float or an array of n points
RATIOS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.one_of(st.floats(-1e6, 1e6), st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n).map(np.array)),
    st.one_of(st.floats(1e-6, 1e6), st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n).map(np.array)),
))


class TestChecks:
    @EACH_RUN
    def test_declared_checks_are_the_checks_observed(self, name, extra, tmp_path, monkeypatch):
        seen = set()
        observe = ExitReport.observe

        def recording(report, check, *args):
            seen.add(check)
            return observe(report, check, *args)

        monkeypatch.setattr(ExitReport, "observe", recording)
        report = run(_small_run(name, extra, tmp_path), quiet=True)
        assert seen == set(EXPERIMENTS[name].checks)
        assert [(c.name, c.bound) for c in report.checks] == list(EXPERIMENTS[name].checks.items())

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_a_check_no_residual_reached_fails_the_run(self, name, tmp_path, monkeypatch):
        # a runner that divides its last check's residual without observing it must not report a pass at 0.0
        last = list(EXPERIMENTS[name].checks)[-1]
        observe = ExitReport.observe

        def dropping(report, check, residual, scale=1.0):
            return residual / scale if check == last else observe(report, check, residual, scale)

        monkeypatch.setattr(ExitReport, "observe", dropping)
        extra = {"verify": {"instances": 9}, "tensor": {"instances": 1}}.get(name, {})
        with pytest.raises(RuntimeError, match=f"{name} observed no residual for {last}$"):
            run(_small_run(name, extra, tmp_path), quiet=True)
        assert not (tmp_path / "report.json").exists()

    def test_observing_an_undeclared_check_raises(self):
        report = ExitReport("verify", 1, [Check("group_law", 0.0, 1e-9)])
        with pytest.raises(KeyError, match="verify declares no check 'grouplaw'"):
            report.observe("grouplaw", 1.0)
        assert report.observed == set()

    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(RATIOS, min_size=1, max_size=4))
    def test_observe_is_the_pointwise_max_floored_at_zero(self, calls):
        report = ExitReport("verify", 1, [Check("c", 0.0, 1.0)])
        worst = 0.0
        for residual, scale in calls:
            ratio = report.observe("c", residual, scale)
            pairs = np.broadcast_arrays(residual, scale)
            pointwise = [r / s for r, s in zip(*(np.ravel(a).tolist() for a in pairs))]
            for v in pointwise:
                worst = max(worst, v)
            assert np.ravel(ratio).tobytes() == np.array(pointwise).tobytes()
            assert isinstance(ratio, float) == (np.ndim(residual) == np.ndim(scale) == 0)
        assert np.float64(report.checks[0].measured).tobytes() == np.float64(worst).tobytes()

    def test_a_nan_ratio_fails_the_check_and_stays(self):
        report = ExitReport("verify", 1, [Check("c", 0.0, 1.0)])
        report.observe("c", np.array([0.5, math.nan]))
        report.observe("c", 0.25)
        assert math.isnan(report.checks[0].measured) and not report.passed

    def test_readme_table_names_every_check_and_bound(self):
        # rows "| experiment | `check` | compares | scale | bound |" of the README's check table
        rows = [[cell.strip().strip("`") for cell in line.strip("| ").split("|")]
                for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("| ")]
        table = {(row[0], row[1]): float(row[-1]) for row in rows if len(row) == 5 and row[0] in EXPERIMENTS}
        assert table == {(name, check): bound for name, e in EXPERIMENTS.items() for check, bound in e.checks.items()}


def _breaks(u, t0):
    """A ``recover`` that breaks off."""
    raise BranchAmbiguityError("halving did not stabilize after 8 steps from t0=1.0")


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_validate_ok_echoes_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "verify", "seed": 3, "shape": [2]}))
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        assert '"instances": 25' in out

    def test_validate_bad_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "banana"}))
        assert main(["validate", str(cfg)]) == 2
        assert "CONFIG_INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            # json parses NaN: this payload used to crash validate with LinAlgError
            '{"experiment": "converge", "seed": 1, "shape": [2], "flow": {"kind": "explicit",'
            ' "h_left": {"blocks": [[[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}}}',
            # used to validate ok and then crash run with ValueError
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [NaN]}}',
            '{"experiment": "verify", "seed": 1, "shape": [2], "grid": {"z_im": [Infinity]}}',
            '{"experiment": "verify", "seed": true, "shape": [2]}',
            '{"experiment": "verify", "seed": 1, "shape": [true]}',
            # used to validate ok and then ask for millions of quadrature nodes
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [0.0001], "z_im": [1.0]}}',
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [1000.0], "z_im": [1.0]}}',
            # grid.nodes is no longer a key
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"nodes": 1000000000}}',
            # used to validate ok and then allocate dense 100000 x 100000 blocks
            '{"experiment": "verify", "seed": 1, "shape": [100000]}',
            '{"experiment": "stone", "seed": 1, "shape": [64], "module_rank": 9}',
            # misspelled keys used to be ignored silently, leaving the default in force
            '{"experiment": "verify", "seed": 1, "shape": [2], "instanses": 5}',
            '{"experiment": "verify", "seed": 1, "shape": [2], "grd": {"r": [1.0]}}',
            '{"experiment": "verify", "seed": 1, "shape": [2], "flow": {"nrm": 1.0}}',
            '{"experiment": "verify", "seed": 1, "shape": [2], "grid": {"z_imag": [0.5]}}',
            '{"experiment": "verify", "seed": 1, "shape": [2], "qqqqqq": 1}',
            # used to validate ok and then end in an OverflowError traceback
            '{"experiment": "stone", "seed": 1, "shape": [2], "grid": {"z_im": [400]}}',
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [32], "z_im": [1]}}',
            # used to validate ok and then run without end
            '{"experiment": "verify", "seed": 1, "shape": [2], "instances": 1000000000000}',
            # used to run on random flows, dropping the payload
            '{"experiment": "tensor", "seed": 1, "shape": [2], "flow": {"kind": "explicit",'
            ' "h_left": {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}}}',
            # used to validate the h_right payload and then drop it
            '{"experiment": "stone", "seed": 1, "shape": [2], "flow": {"kind": "explicit",'
            ' "h_left": {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]},'
            ' "h_right": {"blocks": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}}}',
            # used to validate ok and then run a random flow in the payload's place
            '{"experiment": "verify", "seed": 1, "shape": [2], "flow":'
            ' {"h_left": {"blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}}}',
            # used to validate ok and then end in a ZeroDivisionError traceback
            '{"experiment": "converge", "seed": 1, "shape": [2],'
            ' "element": {"blocks": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}}',
            # used to validate ok and then run at z_im = 0 alone
            '{"experiment": "converge", "seed": 1, "shape": [2], "grid": {"z_im": [0.0, 1000.0]}}',
        ],
        ids=["nan_payload", "nan_r", "inf_z_im", "bool_seed", "bool_shape",
             "tiny_r", "huge_r", "huge_nodes", "huge_shape", "huge_rank",
             "unknown_top", "unknown_section", "unknown_flow", "unknown_grid", "unknown_no_match",
             "stone_growth", "converge_envelope_growth", "huge_instances", "tensor_explicit_flow",
             "stone_h_right", "payload_without_explicit_kind", "converge_zero_element",
             "converge_far_z_im"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_outside_input_exits_two(self, text, command, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        argv = [command, str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err and all(line.startswith("CONFIG_INVALID: ") for line in err.splitlines())
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_run_bundled_verify(self, tmp_path):
        code = main(
            ["run", str(CONFIG_DIR / "verify.json"), "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"group_law", "inverse", "three_lines"} <= names

    def test_trivial_flow_verify_passes(self, tmp_path):
        zero = {"blocks": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        cfg = tmp_path / "trivial.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "verify",
                    "seed": 5,
                    "shape": [2],
                    "flow": {"kind": "explicit", "h_left": zero},
                    "instances": 9,
                }
            )
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @pytest.mark.parametrize(
        "h_left, element, grid",
        [
            # diagonal under a diagonal flow: every smear error is exactly 0
            ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], {}),
            # the generator itself: smear errors of about 1e-15, whose ratios are noise
            ([[1.0, 0.0], [0.5, 0.3], [0.5, -0.3], [-1.0, 0.0]],
             [[1.0, 0.0], [0.5, 0.3], [0.5, -0.3], [-1.0, 0.0]], {"r": [0.5, 1.0, 2.0, 4.0]}),
        ],
        ids=["diagonal", "generator"],
    )
    def test_converge_on_an_element_the_flow_fixes(self, h_left, element, grid, tmp_path, capfd):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "converge", "seed": 1, "shape": [2],
                                   "flow": {"kind": "explicit", "h_left": {"blocks": [h_left]}},
                                   "element": {"blocks": [element]}, "grid": grid}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capfd.readouterr().err == ""

    def test_tolerance_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        import cstarflow.cli as cli_mod

        failing = cli_mod.ExitReport("verify", 1, [cli_mod.Check("rigged", 1.0, 0.0)])
        monkeypatch.setattr(cli_mod, "run", lambda config, out, quiet: failing)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "verify", "seed": 1, "shape": [2]}))
        assert cli_mod.main(["run", str(cfg), "--out", str(tmp_path)]) == 1

    def test_numerical_breakdown_exits_three(self, tmp_path, monkeypatch, capsys):
        import cstarflow.cli as cli_mod

        monkeypatch.setattr(cli_mod, "recover", _breaks)
        out = tmp_path / "out"
        assert main(["run", str(CONFIG_DIR / "stone.json"), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "NUMERICAL_BREAKDOWN: BranchAmbiguityError: halving did not stabilize after 8 steps"
            " from t0=1.0"
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["passed"] is False
        assert report["error"]["type"] == "BranchAmbiguityError"
        assert report["experiment"] == "stone" and report["seed"] == 918
        assert not (out / "stone.csv").exists()

    def test_aliased_stone_generator_exits_three(self, tmp_path, capsys):
        # log T = diag(11, -11): the principal logarithm of u(1) is off by 4 pi, which
        # halving and the residual grid cannot see; the check at t = 0.3 does
        raw = json.loads((CONFIG_DIR / "stone.json").read_text())
        raw["flow"]["h_left"] = {"blocks": [[[11.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-11.0, 0.0]]]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "NUMERICAL_BREAKDOWN: BranchAmbiguityError: the logarithm accepted at t=1.0 misses u(0.3)"
            " by 1.902e+00: an aliased branch"
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["passed"] is False
        assert report["error"]["type"] == "BranchAmbiguityError"
        assert not (out / "stone.csv").exists()

    def test_breakdown_in_a_localization_norm_exits_three(self, tmp_path, monkeypatch, capsys):
        # a NaN out of the induced-power oracle reaches the spectral norm of
        # the intertwining residual, which must report it as a breakdown
        def nan_power(m, z):  # one power per z of a grid, like the oracle
            return np.full(np.shape(z) + m.shape, np.nan, dtype=complex)

        monkeypatch.setattr(stone_mod, "hermitian_matrix_power", nan_power)
        out = tmp_path / "out"
        assert main(["run", str(CONFIG_DIR / "stone.json"), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("NUMERICAL_BREAKDOWN: EigFailureError: ")
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["error"]["type"] == "EigFailureError"
        assert not (out / "stone.csv").exists()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_numpy_error_in_a_runner_exits_three(self, error, tmp_path, monkeypatch, capsys):
        # numpy's own errors are not library errors, but a run they break off
        # is a numerical breakdown all the same
        # np.linalg.solve runs only in stone's principal logarithm, the Cayley transform
        def failing_solve(*args, **kwargs):
            raise error("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        out = tmp_path / "out"
        assert main(["run", str(CONFIG_DIR / "stone.json"), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"NUMERICAL_BREAKDOWN: {error.__name__}: Singular matrix"
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["passed"] is False
        assert report["error"]["type"] == error.__name__
        assert not (out / "stone.csv").exists()

    def test_residual_grid_miss_exits_one(self, tmp_path, monkeypatch):
        # a residual-grid error over its bound is a tolerance miss of the run, with its CSV,
        # while the library's stone() and recovery_report() still refuse the evaluator
        exact = stone_mod.recover

        def missed(u, t0=1.0):
            rec = exact(u, t0)
            return dataclasses.replace(rec, residual_grid=tuple((t, err + 2e-8) for t, err in rec.residual_grid))

        monkeypatch.setattr(stone_mod, "recover", missed)
        monkeypatch.setattr(cli_mod, "recover", missed)
        out = tmp_path / "out"
        assert main(["run", str(CONFIG_DIR / "stone.json"), "--out", str(out), "--quiet"]) == 1
        assert (out / "stone.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert "status" not in report and report["passed"] is False
        assert [(c["name"], c["measured"] >= 2e-8) for c in report["checks"] if not c["passed"]] == [
            ("residual_grid", True)
        ]
        u = stone_mod.SampledUnitaryGroup.from_positive(
            random_positive_operator(rng(1), BlockShape([2]), 1, cond=COND))
        for recover in (stone_mod.stone, stone_mod.recovery_report):
            with pytest.raises(NotAGroupError, match="evaluator differs from T"):
                recover(u)

    def test_overflowing_continuation_exits_two(self, tmp_path, capsys):
        # exp(iz(lam - mu)) overflows at Im z = 1e3: the growth budget refuses it before any numerics
        raw = json.loads((CONFIG_DIR / "verify.json").read_text())
        raw["grid"]["z_im"] = [1e3]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("CONFIG_INVALID: ")
        assert not out.exists()


# One row per CLI outcome: a config, the command run on it, the exit code and a fragment of
# stderr (an empty stderr where the row expects exit 0). CI runs the same rows through the
# cstarflow console script.
CLI_CASES = json.loads((ROOT / "tests" / "cli_cases.json").read_text())


@pytest.mark.parametrize("case", CLI_CASES, ids=[case["name"] for case in CLI_CASES])
def test_cli_case(case, tmp_path, capfd):
    config = tmp_path / f"{case['name']}.json"
    config.write_text(json.dumps(case["config"]))
    extra = ["--quiet", "--out", str(tmp_path / "out")] if case["command"] == "run" else []
    assert main([case["command"], str(config), *extra]) == case["exit"]
    err = capfd.readouterr().err
    assert (case["stderr"] in err) if case["exit"] else err == ""


def _log_scale(low: float, high: float):
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def drawn_configs(draw) -> dict:
    """A small config of any experiment: 1-2 blocks of n <= 3, module_rank <= 3, flow norms and widths r on a
    log scale, |Im z| up to 80, and explicit flow and element payloads where the experiment reads them."""
    name = draw(st.sampled_from(list(EXPERIMENTS)))
    seed, shape = draw(st.integers(0, 2**31)), draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    raw = {"experiment": name, "seed": seed, "shape": shape,
           "grid": {"z_re": draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2)),
                    "z_im": draw(st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=2))}}
    kind = "explicit" if "flow.h_left" in _declared(name, "explicit") and draw(st.booleans()) else "random"
    reads = _declared(name, kind)
    if kind == "explicit":
        h = random_hermitian(rng(seed), BlockShape(shape), draw(_log_scale(-3.0, 1.5)))
        raw["flow"] = {"kind": "explicit", "h_left": element_to_payload(h.value)}
    elif "flow.norm" in reads:
        raw["flow"] = {"norm": draw(_log_scale(-3.0, 1.5))}
    if "grid.r" in reads:
        raw["grid"]["r"] = draw(st.lists(_log_scale(-2.0, 3.0), min_size=1, max_size=3))
    if "element" in reads and draw(st.booleans()):
        raw["element"] = element_to_payload(random_element(rng(seed + 1), BlockShape(shape)))
    if "instances" in reads:
        raw["instances"] = draw(st.integers(1, 6))
    if "module_rank" in reads:
        raw["module_rank"] = draw(st.integers(1, 3))
    return raw


@settings(max_examples=50, deadline=None, derandomize=True)
@given(raw=drawn_configs())
def test_a_drawn_config_is_refused_or_ends_in_a_verdict(raw):
    # refused: exit 2 with CONFIG_INVALID lines alone; admitted: exit 0, 1 or 3 with report.json written
    with tempfile.TemporaryDirectory() as tmp:
        config, out, err = Path(tmp) / "c.json", Path(tmp) / "out", io.StringIO()
        config.write_text(json.dumps(raw))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(config), "--out", str(out), "--quiet"])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("CONFIG_INVALID: ") for line in lines), raw
        else:
            assert code in (0, 1, 3) and (out / "report.json").exists(), raw


def test_smear_workload_run_takes_one_norm_per_cap(tmp_path, monkeypatch):
    # core_rescale returns the norm(alpha_z(x)) it took, so the cap check takes no norm of its own:
    # a smear workload config ([64], three widths, one z) takes 62 member norms in 10 stacks. The widths are
    # one batch, so the smear errors at z = 0, quad_vs_oracle and norm_bound take one stack of three each.
    # A large stack splits over the usable CPUs, so the stacks are counted as largest_singular_value
    # takes them (its 2 other inputs, the generators' Hermitian defects, are exact zeros and reach no
    # LAPACK), and the member norms one by one at np.linalg.eigvalsh, which takes each member's Gram
    raw = next(raw for raw in _workload_specs() if raw["experiment"] == "converge" and raw["shape"] == [64])
    stacks, calls = [], []
    norm = algebra_mod.largest_singular_value

    def counted(b):
        stacks.append(np.count_nonzero(b) > 0)
        return norm(b)

    monkeypatch.setattr(algebra_mod, "largest_singular_value", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh(calls))
    run(validate(raw)[0], tmp_path, quiet=True)
    assert (stacks.count(True), sum(math.prod(shape[:-2]) for shape in calls)) == (10, 62)


def test_runs_of_small_stacks_never_start_the_split_pool(tmp_path, fresh_pool):
    # their largest stacks, 650 3x3 grid norms of the bundled verify config and 11 20x20 of a
    # gns workload config, are far under algebra._SPLIT_WORK
    raws = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    specs = _workload_specs()
    raws += [next(raw for raw in specs if (raw["experiment"], raw["shape"]) == workload)
             for workload in (("stone", [10, 6]), ("implemented", [3]))]
    for i, raw in enumerate(raws):
        run(validate(raw)[0], tmp_path / str(i), quiet=True)
    assert algebra_mod._pool is None


def _shifted(flow: FlowGenerator, delta: float) -> FlowGenerator:
    """``flow`` with ``delta`` times the all-ones matrix added to each generator, which commutes with neither."""
    ones = AlgebraElement(flow.shape, [np.ones((n, n)) for n in flow.shape])
    return FlowGenerator(HermitianElement(flow.h_left.value + delta * ones),
                         HermitianElement(flow.h_right.value + delta * ones))


def _left_shifted(flow: FlowGenerator, delta: float) -> FlowGenerator:
    """``flow`` with ``delta`` times the identity added to its left generator, which commutes with every generator."""
    return FlowGenerator(HermitianElement(flow.h_left.value + delta * identity(flow.shape)), flow.h_right)


def _wrapped(module, name: str, wrap):
    """A fault: ``module.name`` replaced by ``wrap(original)``."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, wrap(getattr(module, name)))


algebra_mod = importlib.import_module("cstarflow.algebra")
cli_mod = importlib.import_module("cstarflow.cli")
composition_mod = importlib.import_module("cstarflow.composition")
implemented_mod = importlib.import_module("cstarflow.implemented")
stone_mod = importlib.import_module("cstarflow.stone")  # not the function ``stone``
# the time and z of a flow bent off the group law, t -> t + 1e-7 t^2
BENT_EVALUATE = _wrapped(cli_mod, "evaluate", lambda exact: lambda g, t, x: exact(g, t + 1e-7 * np.square(t), x))
BENT_CONTINUATION = _wrapped(cli_mod, "continue_exact",
                             lambda exact: lambda g, z, x: exact(g, z + 1e-7 * np.square(z), x))
# at z = 0 the continuation is the identity, so the bundled converge config cannot tell the two caps apart
LONG_RESCALE = _wrapped(cli_mod, "core_rescale", lambda exact: lambda *args: _scaled_rescale(exact(*args), 1.0 + 1e-9))


def _scaled_rescale(rescaled: tuple, c: float) -> tuple:
    """``core_rescale``'s approximants scaled by ``c``, with the cap norm(alpha_z(x)) it returned unchanged."""
    xs, cap = rescaled
    return c * xs, cap


def _drifted_smears(monkeypatch):
    """Both smears centered at z + 0.01/r: a kernel with a first moment, whose error falls like 1/r, not 1/r^2.

    The quadratures take one width per call, each about its own drifted center."""
    oracle, quadratures = cli_mod.smear_oracle, cli_mod._smear_quadratures
    monkeypatch.setattr(cli_mod, "smear_oracle", lambda g, x, r, z: oracle(g, x, r, z + 0.01 / np.asarray(r)))
    monkeypatch.setattr(cli_mod, "_smear_quadratures", lambda g, x, r, z, nodes: stack(
        [quadratures(g, x, r[i:i + 1], z + 0.01 / r[i], nodes[i:i + 1])[0] for i in range(r.size)]))


def _grown_recovery(monkeypatch):
    """The recovered T grown by 1e-5: its powers T_rec**(iz) miss T**(iz) as well, by about as much."""
    exact = cli_mod.recover

    def grown(u, t0):
        rec = exact(u, t0)
        return dataclasses.replace(rec, t_op=(1.0 + 1e-5) * rec.t_op)

    monkeypatch.setattr(cli_mod, "recover", grown)


# (experiment, check): a fault of the runner's wiring or of a kernel it calls, and every check
# the fault fails; it puts its own check 1e2 to 1e6 times over the bound on the bundled config,
# or above a bound of 0
WITNESS_FAULTS = {
    ("verify", "group_law"): (BENT_EVALUATE, {"group_law"}),
    ("verify", "inverse"): (BENT_CONTINUATION, {"inverse", "composition_same_side"}),
    ("verify", "composition_same_side"): (BENT_CONTINUATION, {"inverse", "composition_same_side"}),
    ("verify", "semi_mult_left"): (
        _wrapped(cli_mod, "left_companion", lambda exact: lambda g: _shifted(exact(g), 1e-7)), {"semi_mult_left"}),
    ("verify", "semi_mult_right"): (
        _wrapped(cli_mod, "right_companion", lambda exact: lambda g: _shifted(exact(g), 1e-7)), {"semi_mult_right"}),
    # the strip's largest norm raised by 1e-6 norm(x) in the excess the runner is handed
    ("verify", "three_lines"): (_wrapped(cli_mod, "three_lines_check", lambda exact: lambda g, x, z:
                                         exact(g, x, z) + 1e-6 * x.norm()), {"three_lines"}),
    ("tensor", "tensor_continuation"): (_wrapped(cli_mod, "tensor_flow", lambda exact: lambda a, b: dataclasses.replace(
        exact(a, b), product=_shifted(exact(a, b).product, 1e-6))), {"tensor_continuation"}),
    # gamma_z times exp(i z 1e-5): the pair still commutes, and its product flow misses alpha_z beta_z
    ("tensor", "commuting_continuation"): (_wrapped(composition_mod.CommutingPair, "product", lambda exact: property(
        lambda p: _left_shifted(exact.func(p), 1e-5))), {"commuting_continuation"}),
    # the middle product S x T the localized side is compared with, moved by 1e-5
    ("implemented", "localized_middle"): (_wrapped(implemented_mod, "intertwining_residual", lambda exact:
                                                   lambda loc, a_om, a: exact(loc, a_om, a + 1e-5 * identity_operator(
                                                       a.shape, a.k))), {"localized_middle"}),
    # a quadrature shrunk by 1e-5 still meets the norm bound, and misses the closed form
    ("converge", "quad_vs_oracle"): (_wrapped(cli_mod, "_smear_quadratures", lambda exact: lambda g, x, *rule:
                                              (1.0 - 1e-5) * exact(g, x, *rule)), {"quad_vs_oracle"}),
    # a quadrature grown by 1e3 breaks the norm bound, and misses the closed form as well
    ("converge", "norm_bound"): (_wrapped(cli_mod, "_smear_quadratures", lambda exact: lambda g, x, *rule:
                                          1e3 * exact(g, x, *rule)), {"norm_bound", "quad_vs_oracle"}),
    ("converge", "convergence_ratio"): (_drifted_smears, {"convergence_ratio"}),
    ("converge", "core_rescale_cap_x"): (LONG_RESCALE, {"core_rescale_cap_x", "core_rescale_cap_continuation"}),
    ("converge", "core_rescale_cap_continuation"): (
        LONG_RESCALE, {"core_rescale_cap_x", "core_rescale_cap_continuation"}),
    # approximants shrunk by 1e-3 meet both caps, and converge to 0.999 x
    ("converge", "core_rescale_convergence"): (_wrapped(cli_mod, "core_rescale", lambda exact: lambda *args:
                                                        _scaled_rescale(exact(*args), 1.0 - 1e-3)),
                                               {"core_rescale_convergence"}),
    ("stone", "recovery_error"): (_grown_recovery, {"recovery_error", "continuation"}),
    # the recovered T's powers on the probe grid taken at z + 1e-7 z^2, as the residual grid compares them
    ("stone", "residual_grid"): (_wrapped(stone_mod, "power", lambda exact: lambda t, z:
                                          exact(t, z + 1e-7 * np.square(z))), {"residual_grid"}),
    ("stone", "continuation"): (_grown_recovery, {"recovery_error", "continuation"}),
    ("stone", "gram_identity"): (_wrapped(PositiveFunctional, "value", lambda exact: lambda omega, a:
                                          (1.0 + 1e-6) * exact(omega, a)), {"gram_identity"}),
    # the dense oracle's powers of the induced factors grown by 1e-6
    ("stone", "induced_power"): (_wrapped(stone_mod, "hermitian_matrix_power", lambda exact: lambda m, z:
                                          (1.0 + 1e-6) * exact(m, z)), {"induced_power"}),
    # the 1e-3 identity shift vanishes, so the compared pair is T and T itself, which every state sees as equal
    ("stone", "separating_detects"): (_wrapped(cli_mod, "identity_operator", lambda exact: lambda shape, k:
                                               0.0 * exact(shape, k)), {"separating_detects"}),
    # the eigenbasis route's phases taken at z + 1e-7 z^2, off the complex powers' route
    ("implemented", "continuation_formula"): (_wrapped(implemented_mod, "_phases", lambda exact: lambda z:
                                                       exact(z + 1e-7 * np.square(z))), {"continuation_formula"}),
}


def test_every_declared_check_has_a_witness_fault():
    declared = {(name, check) for name, experiment in EXPERIMENTS.items() for check in experiment.checks}
    assert set(WITNESS_FAULTS) == declared


@pytest.mark.parametrize("key", WITNESS_FAULTS, ids=[f"{name}-{check}" for name, check in WITNESS_FAULTS])
def test_witness_fault_fails_its_check(key, tmp_path, monkeypatch):
    name, check = key
    fault, failing = WITNESS_FAULTS[key]
    fault(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--quiet", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    measured, bound = checks[check]["measured"], checks[check]["bound"]
    assert (1e2 <= measured / bound <= 1e6) if bound else measured > 0
    assert {c["name"] for c in checks.values() if not c["passed"]} == failing


# cli.RATIO_FLOOR = 1e-12 pinned from both sides on the bundled converge pair (x = e21,
# h_left = diag(1, 0)): its smear error at width r is 1 - exp(-1/(4 r^2)), so widths 1e3 and 2e3
# give 2.5e-7 and 6.25e-8 and the pair is read (ratio 1/4, 0.05 inside [0.2, 0.3]), while widths
# 1e6 and 2e6 give 2.5e-13 and 6.25e-14 and the pair is dropped (the check is handed 0.0)
@pytest.mark.parametrize("widths, read", [([1e3, 2e3], True), ([1e6, 2e6], False)], ids=["read", "dropped"])
def test_ratio_floor_reads_a_pair_above_it_and_drops_one_below(widths, read, tmp_path, monkeypatch):
    handed = []
    observe = ExitReport.observe

    def recording(report, name, residual, scale=1.0):
        if name == "convergence_ratio":
            handed.append(residual)
        return observe(report, name, residual, scale)

    monkeypatch.setattr(ExitReport, "observe", recording)
    raw = json.loads((CONFIG_DIR / "converge.json").read_text())
    raw["grid"]["r"] = widths
    config, problems = validate(raw)
    assert problems == []
    assert run(config, tmp_path, quiet=True).passed
    (residual,) = handed
    if read:
        assert np.shape(residual) == (1,) and residual[0] == pytest.approx(-0.05, abs=1e-6)
    else:
        assert np.shape(residual) == () and residual == 0.0


def test_verify_batches_stay_within_the_grid_budget(tmp_path, monkeypatch):
    # the budget is scaled down so the test stays small: one batch of all 24 instances would hold
    # strips of 24 x 26 x 1024 complex entries (10 MB), a batch of two 0.8 MB ones
    monkeypatch.setattr(cli_mod, "MAX_GRID_SIZE", 2**16)
    config, problems = validate({"experiment": "verify", "seed": 1, "shape": [32], "instances": 24})
    assert problems == []
    tracemalloc.start()
    try:
        assert run(config, tmp_path, quiet=True).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * 2**16
    assert len((tmp_path / "verify.csv").read_text().splitlines()) == 1 + 6 * 24


def test_tensor_batches_stay_within_the_grid_budget(tmp_path, monkeypatch):
    # the budget is scaled down so the test stays small: at [5, 5] an instance stacks 9 grid points of
    # 50^2 entries, so batches hold two instances; one batch of all 24 peaks near 30 MB, a batch of two near 3 MB
    monkeypatch.setattr(cli_mod, "MAX_GRID_SIZE", 2**16)
    config, problems = validate({"experiment": "tensor", "seed": 1, "shape": [5, 5], "instances": 24})
    assert problems == []
    tracemalloc.start()
    try:
        assert run(config, tmp_path, quiet=True).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * 2**16
    assert len((tmp_path / "tensor.csv").read_text().splitlines()) == 1 + 2 * 9 * 24


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("name", ["verify", "tensor"])
def test_batches_write_the_bytes_of_one_batch(name, size, tmp_path, monkeypatch):
    config = load_config(CONFIG_DIR / f"{name}.json")
    run(config, tmp_path / "whole", quiet=True)
    # the grid budget at which a batch holds `size` instances of the bundled config
    per_instance = {"verify": STRIP_SIZE * config.shape.dim,
                    "tensor": len(config.z_grid()) * config.shape.dim**2}[name]
    monkeypatch.setattr(cli_mod, "MAX_GRID_SIZE", size * per_instance)
    batch, sizes = getattr(cli_mod, f"_{name}_batch"), []
    monkeypatch.setattr(cli_mod, f"_{name}_batch", lambda cfg, r, members, report:
                        sizes.append(len(members)) or batch(cfg, r, members, report))
    run(config, tmp_path / "batched", quiet=True)
    assert sizes == [size] * (config.instances // size) + [1] * (config.instances % size)
    for path in (tmp_path / "whole").iterdir():
        assert (tmp_path / "batched" / path.name).read_bytes() == path.read_bytes()


# five widths, 2.0 twice, on a 2 x 2 z-grid; at Im z = 0.16, numpy's exp (2.4.6, x86-64) rounds the
# envelopes exp(r^2 (Im z)^2) of widths 2 and 5 to another last digit than math.exp does
WIDE_CONVERGE = {"experiment": "converge", "seed": 21, "shape": [3, 2], "flow": {"kind": "random", "norm": 1.5},
                 "grid": {"r": [0.7, 2.0, 0.35, 2.0, 5.0], "z_re": [-0.4, 0.6], "z_im": [0.0, 0.16]}}


def test_converge_batches_write_the_values_of_one_width_at_a_time(tmp_path):
    config, problems = validate(WIDE_CONVERGE)
    assert problems == []
    assert run(config, tmp_path, quiet=True).passed
    r = rng(config.seed)
    g = config.flow(r)
    # the run takes its smears in the flow's eigenbasis, where the reference rows are built too
    g, x = in_eigenbasis(g, random_element(r, config.shape, 1.0))
    errs = {rr: (smear_oracle(g, x, rr, 0.0) - x).norm() for rr in config.r_list}
    rows, quad_vs_oracle, norm_bound = [], 0.0, 0.0
    for z in config.z_grid():
        for rr in config.r_list:
            plan = SmearingPlan.for_flow(g, rr, z)
            quad = smear_quadrature(g, x, plan)
            err = (quad - smear_oracle(g, x, rr, z)).norm()
            envelope = x.norm() * math.exp(rr * rr * z.imag * z.imag)
            bound_rhs = envelope * (1.0 + 1e-8)
            rows.append(",".join(map(repr, (z.real, z.imag, rr, plan.nodes, err, errs[rr], bound_rhs))))
            quad_vs_oracle, norm_bound = max(quad_vs_oracle, err / envelope), max(norm_bound, quad.norm() / bound_rhs)
    assert (tmp_path / "converge.csv").read_text().splitlines()[1:] == rows
    checks = {c["name"]: c["measured"] for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    assert (checks["quad_vs_oracle"], checks["norm_bound"]) == (quad_vs_oracle, norm_bound)


def test_converge_width_batches_write_the_bytes_of_one_batch(tmp_path, monkeypatch):
    config, _ = validate(WIDE_CONVERGE)
    run(config, tmp_path / "whole", quiet=True)
    # two widths per batch: the five go in batches of 2, 2 and 1. A width holds its dense size 13 and two phase
    # tables of n_b x 41 nodes per block (r = 0.35 at max|z_im| = 0.16 has the largest count)
    monkeypatch.setattr(cli_mod, "MAX_GRID_SIZE", 2 * (13 + 2 * 5 * 41))
    widths, members = [], []
    oracle, norm = cli_mod.smear_oracle, algebra_mod.largest_singular_value
    monkeypatch.setattr(cli_mod, "smear_oracle", lambda g, x, r, z: widths.append(np.size(r)) or oracle(g, x, r, z))
    monkeypatch.setattr(algebra_mod, "largest_singular_value",
                        lambda b: members.append(math.prod(b.shape[:-2])) or norm(b))
    run(config, tmp_path / "batched", quiet=True)
    # at z = 0 the batches of smear errors and the 16 core-rescaling approximants, then the batches at each z
    assert widths == [2, 2, 1, 16] + [2, 2, 1] * 4
    # the approximants are one stack of 16 at any grid budget; MAX_FLAT_SIZE keeps them within the real one
    assert max(m for m in members if m != 16) * config.shape.dim <= cli_mod.MAX_GRID_SIZE
    for path in (tmp_path / "whole").iterdir():
        assert (tmp_path / "batched" / path.name).read_bytes() == path.read_bytes()


class TestArtifacts:
    def test_converge_worked_value_in_csv(self, tmp_path):
        config = load_config(CONFIG_DIR / "converge.json")
        report = run(config, tmp_path, quiet=True)
        assert report.passed
        lines = (tmp_path / "converge.csv").read_text().splitlines()
        assert lines[0] == "z_re,z_im,r,nodes,err_quad_vs_oracle,err_smear_vs_x,bound_rhs"
        row_r1 = next(line for line in lines[1:] if line.startswith("0.0,0.0,1.0,"))
        err_smear = float(row_r1.split(",")[5])
        assert err_smear == pytest.approx(1.0 - math.exp(-0.25), abs=1e-12)

    def test_converge_runs_every_grid_point(self, tmp_path):
        config, problems = validate({"experiment": "converge", "seed": 3, "shape": [2],
                                     "grid": {"r": [1.0, 2.0], "z_re": [0.0, 0.5], "z_im": [0.0, 0.5]}})
        assert problems == []
        assert run(config, tmp_path, quiet=True).passed
        rows = [line.split(",") for line in (tmp_path / "converge.csv").read_text().splitlines()[1:]]
        points = [(float(z_re), float(z_im), float(r)) for z_re, z_im, r, *_ in rows]
        assert points == [(re, im, r) for re in (0.0, 0.5) for im in (0.0, 0.5) for r in (1.0, 2.0)]
        # the smear error is taken at z = 0 and repeats; the envelope grows with Im z
        assert len({row[5] for row in rows}) == 2
        assert {float(row[6]) > 1.00000001 for row in rows} == {False, True}

    def test_stone_recovery_report(self, tmp_path):
        config = load_config(CONFIG_DIR / "stone.json")
        report = run(config, tmp_path, quiet=True)
        assert report.passed
        recovery = json.loads((tmp_path / "recovery.json").read_text())
        assert recovery["T_spectrum"] == pytest.approx([1.0, math.e], rel=1e-9)
        assert recovery["halvings"] == 0
        assert max(err for _, err in recovery["residual_grid"]) <= 1e-8

    def test_stone_recovers_the_generator_once(self, tmp_path, monkeypatch):
        calls = []
        recover = cli_mod.recover

        def counted(*args):
            calls.append(args)
            return recover(*args)

        monkeypatch.setattr(cli_mod, "recover", counted)
        assert run(load_config(CONFIG_DIR / "stone.json"), tmp_path, quiet=True).passed
        assert len(calls) == 1

    def test_stone_powers_only_kronecker_factors(self, tmp_path, monkeypatch):
        # the induced_power oracle works at size k n_b = 20, never at d = 272
        sizes = []
        power = stone_mod.hermitian_matrix_power

        def spy(m, z, *args):
            sizes.append(m.shape)
            return power(m, z, *args)

        monkeypatch.setattr(stone_mod, "hermitian_matrix_power", spy)
        config, problems = validate({"experiment": "stone", "seed": 1, "shape": [10, 6],
                                     "module_rank": 2})
        assert problems == []
        assert run(config, tmp_path, quiet=True).passed
        assert sorted(set(sizes)) == [(12, 12), (20, 20)]

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_csv_has_the_table_columns(self, name, tmp_path):
        run(load_config(CONFIG_DIR / f"{name}.json"), tmp_path, quiet=True)
        columns = EXPERIMENTS[name].columns
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) > 1 and all(len(line.split(",")) == len(columns) for line in lines)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_two_runs_byte_identical(self, name, tmp_path):
        config = load_config(CONFIG_DIR / f"{name}.json")
        run(config, tmp_path / "a", quiet=True)
        run(config, tmp_path / "b", quiet=True)
        csv_a = (tmp_path / "a" / f"{name}.csv").read_bytes()
        csv_b = (tmp_path / "b" / f"{name}.csv").read_bytes()
        assert csv_a == csv_b
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()


def _tree(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _forbid_write_text(monkeypatch):
    """Make ``Path.write_text``, which truncates a file to zero before it writes, fail the test."""
    def truncating_write(*args, **kwargs):
        raise AssertionError("an output went through Path.write_text")

    monkeypatch.setattr(Path, "write_text", truncating_write)


class TestOverwrite:
    """A run rewrites its outputs in place (``cli._write``): the bytes are those of a run into an empty
    directory, whatever the files held before."""

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_a_run_over_longer_stale_files_writes_the_bytes_of_a_fresh_one(self, name, tmp_path, monkeypatch):
        config = load_config(CONFIG_DIR / f"{name}.json")
        run(config, tmp_path / "fresh", quiet=True)
        fresh = _tree(tmp_path / "fresh")
        stale = tmp_path / "stale"
        stale.mkdir()
        for file, data in fresh.items():
            (stale / file).write_bytes(b"\xffnot this run\r\n" * (len(data) // 8 + 100))
        _forbid_write_text(monkeypatch)
        run(config, stale, quiet=True)
        assert _tree(stale) == fresh

    def test_a_file_is_rewritten_with_longer_then_shorter_text(self, tmp_path):
        path = tmp_path / "f.csv"
        for text in ("a,b\n1,2\n", "a,b\n1,2\n3.0,4.0\n5,6\n", "x\n", ""):
            cli_mod._write(path, text)
            assert path.read_bytes() == text.encode()

    def test_an_error_report_replaces_a_longer_report(self, tmp_path, monkeypatch, capsys):
        stale = tmp_path / "stale"
        argv = ["run", str(CONFIG_DIR / "stone.json"), "--quiet", "--out"]
        assert main([*argv, str(stale)]) == 0
        report = stale / "report.json"
        report.write_bytes(report.read_bytes() + b" " * 4096)
        monkeypatch.setattr(cli_mod, "recover", _breaks)
        _forbid_write_text(monkeypatch)
        assert main([*argv, str(stale)]) == 3
        assert main([*argv, str(tmp_path / "fresh")]) == 3
        assert json.loads(report.read_text())["status"] == "error"
        assert report.read_bytes() == (tmp_path / "fresh" / "report.json").read_bytes()

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_write_text_gives(self, mask, tmp_path):
        old = os.umask(mask)
        try:
            cli_mod._write(tmp_path / "new.json", "{}\n")
            (tmp_path / "reference.json").write_text("{}\n")
        finally:
            os.umask(old)
        assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "reference.json").stat().st_mode


def _assert_loads_no_scipy(body: str):
    """Run ``body`` in a fresh interpreter on this checkout and fail if it loaded any scipy module."""
    code = textwrap.dedent(body) + textwrap.dedent("""
        import sys
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
    """)
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_tensor_and_implemented_load_no_scipy(tmp_path):
    # the C*-norm needs numpy alone
    _assert_loads_no_scipy(f"""
        import json
        import pathlib
        import cstarflow.cli
        config_dir = pathlib.Path({str(CONFIG_DIR)!r})
        for name in ("implemented", "verify", "tensor"):
            config, _ = cstarflow.cli.validate(json.loads((config_dir / (name + ".json")).read_text()))
            assert cstarflow.cli.run(config, {str(tmp_path)!r} + "/" + name, quiet=True).passed, name
    """)


def test_converge_and_double_smear_load_no_scipy(tmp_path):
    # the smears take their trapezoidal nodes from numpy
    _assert_loads_no_scipy(f"""
        import json
        import pathlib
        import cstarflow.cli
        from cstarflow.algebra import AlgebraElement, BlockShape, HermitianElement
        from cstarflow.composition import CommutingPair, double_smear
        from cstarflow.sampling import random_commuting_flows, random_element, rng
        config, _ = cstarflow.cli.validate(json.loads(pathlib.Path({str(CONFIG_DIR / "converge.json")!r}).read_text()))
        assert cstarflow.cli.run(config, {str(tmp_path / "converge")!r}, quiet=True).passed
        r = rng(1)
        pair = CommutingPair(*random_commuting_flows(r, BlockShape([4]), 2.0))
        assert double_smear(pair, random_element(r, BlockShape([4]), 1.0), 0.5, 0.25j).norm() > 0
    """)


def test_stone_loads_no_scipy(tmp_path):
    # stone's principal logarithm and its power oracle take numpy alone
    _assert_loads_no_scipy(f"""
        import json
        import pathlib
        import cstarflow.cli
        config, _ = cstarflow.cli.validate(json.loads(pathlib.Path({str(CONFIG_DIR / "stone.json")!r}).read_text()))
        assert cstarflow.cli.run(config, {str(tmp_path / "stone")!r}, quiet=True).passed
    """)
