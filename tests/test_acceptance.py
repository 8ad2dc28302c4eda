"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run pytest with
``-s`` to see them on a green run).  Desk scale throughout: block
dimensions <= 16, module rank <= 4, generator norms <= 4 unless a
criterion says otherwise.
"""

import math

import numpy as np

from cstarflow import (
    AlgebraElement,
    BlockShape,
    CommutingPair,
    FamilyNotFaithfulError,
    ImplementedFlow,
    ModuleOperator,
    PositiveFunctional,
    SampledUnitaryGroup,
    SmearingPlan,
    SubalgebraBasis,
    continue_exact,
    core_rescale,
    evaluate,
    gamma_continuation_check,
    hermitian_matrix_power,
    identity_operator,
    implemented_continuation_check,
    induce,
    inner,
    left_companion,
    localize,
    localized_middle_check,
    matrix_unit_operators,
    op_log,
    op_power,
    recovery_report,
    right_companion,
    separating_check,
    smear_oracle,
    smear_quadrature,
    stone,
    tensor_continuation_check,
    tensor_flow,
    three_lines_check,
)
from cstarflow.cli import EXPERIMENTS, load_config, run
from cstarflow.sampling import (
    random_commuting_flows,
    random_element,
    random_flow,
    random_operator,
    random_positive_operator,
    random_state,
    random_vector,
    rng,
)

from conftest import diag_flow, e12, induced_dense

SHAPES = (BlockShape([2, 3]), BlockShape([4]), BlockShape([3, 2]), BlockShape([2, 2, 2]))


def report(number: int, label: str, worst: float, bound: float) -> None:
    status = "PASS" if worst <= bound else "FAIL"
    print(f"criterion {number}: {status} - {label} (worst {worst:.3e}, bound {bound:.3e})")
    assert worst <= bound, f"criterion {number} failed: {worst:.3e} > {bound:.3e}"


def test_criterion_1_group_and_continuation_algebra():
    r = rng(1001)
    worst = 0.0
    for i in range(200):
        shape = SHAPES[i % len(SHAPES)]
        g = random_flow(r, shape, float(r.uniform(0.5, 4.0)))
        x = random_element(r, shape, 1.0)
        a, b = random_element(r, shape, 1.0), random_element(r, shape, 1.0)
        s, t = (float(v) for v in r.uniform(-2.0, 2.0, size=2))
        side = 1.0 if r.uniform() < 0.5 else -1.0
        z = complex(float(r.uniform(-1, 1)), side * float(r.uniform(0.05, 0.5)))
        y = complex(float(r.uniform(-1, 1)), side * float(r.uniform(0.05, 0.5)))

        resid = (evaluate(g, s, evaluate(g, t, x)) - evaluate(g, s + t, x)).norm()
        worst = max(worst, resid / x.norm())

        resid = (continue_exact(g, -z, continue_exact(g, z, x)) - x).norm()
        worst = max(worst, resid / x.norm())

        direct = continue_exact(g, y + z, x)
        comp = continue_exact(g, y, continue_exact(g, z, x))
        worst = max(worst, (comp - direct).norm() / max(direct.norm(), x.norm()))

        lhs = evaluate(left_companion(g), t, b) @ evaluate(g, t, a)
        worst = max(worst, (lhs - evaluate(g, t, b @ a)).norm() / (a.norm() * b.norm()))
        rhs = evaluate(g, t, a) @ evaluate(right_companion(g), t, b)
        worst = max(worst, (rhs - evaluate(g, t, a @ b)).norm() / (a.norm() * b.norm()))
    report(1, "group/continuation algebra over 200 instances", worst, 1e-9)


def test_criterion_2_three_lines_bound():
    r = rng(1002)
    worst = -math.inf
    for i in range(50):
        shape = SHAPES[i % len(SHAPES)]
        g = random_flow(r, shape, float(r.uniform(0.5, 4.0)))
        x = random_element(r, shape, 1.0)
        z = complex(float(r.uniform(-1, 1)), float(r.uniform(-1, 1)))
        scale = max(x.norm(), continue_exact(g, z, x).norm())
        worst = max(worst, three_lines_check(g, x, z) / scale)
    report(2, "strip maximum principle, 50 x 25 samples", worst, 1e-9)


def test_criterion_3_smearing():
    r = rng(1003)
    shape = BlockShape([3, 2])
    worst_quad = worst_norm = 0.0
    for _ in range(3):
        g = random_flow(r, shape, 4.0)
        x = random_element(r, shape, 1.0)
        for rr in (0.5, 1.0, 2.0, 4.0):
            for im in (-1.0, 0.3, 1.0):
                z = complex(float(r.uniform(-1, 1)), im)
                quad = smear_quadrature(g, x, SmearingPlan.for_flow(g, rr, z))
                oracle = smear_oracle(g, x, rr, z)
                envelope = x.norm() * math.exp(rr * rr * im * im)
                worst_quad = max(worst_quad, (quad - oracle).norm() / envelope)
                worst_norm = max(worst_norm, quad.norm() / (envelope * (1 + 1e-8)))
    report(3, "(a) quadrature vs closed-form oracle", worst_quad, 1e-8)
    report(3, "(b) smear norm bound", worst_norm, 1.0)

    g0 = diag_flow(1.0, 0.0)
    worked = smear_quadrature(g0, e12(), SmearingPlan.for_flow(g0, 1.0, 0.0))
    err = (worked - math.exp(-0.25) * e12()).norm()
    report(3, "(c) worked value exp(-1/4) on the matrix-unit instance", err, 1e-10)

    worst_ratio = 0.0
    for _ in range(5):
        g = random_flow(r, shape, float(r.uniform(0.5, 4.0)))
        x = random_element(r, shape, 1.0)
        rr = 1.0
        while (smear_oracle(g, x, rr, 0.0) - x).norm() > 1e-2 * x.norm():
            rr *= 2.0
        for _ in range(2):
            e1 = (smear_oracle(g, x, rr, 0.0) - x).norm()
            e2 = (smear_oracle(g, x, 2 * rr, 0.0) - x).norm()
            ratio = e2 / e1
            worst_ratio = max(worst_ratio, 0.2 - ratio, ratio - 0.3)
            rr *= 2.0
    report(3, "(d) quadratic convergence ratio in [0.2, 0.3]", max(worst_ratio, 0.0), 0.0)


def test_criterion_4_core_rescaling():
    r = rng(1004)
    worst_cap = 0.0
    worst_tail = 0.0
    for i in range(10):
        shape = SHAPES[i % len(SHAPES)]
        g = random_flow(r, shape, 2.0)
        x = random_element(r, shape, 1.0)
        z = complex(float(r.uniform(-0.5, 0.5)), float(r.uniform(0.1, 0.5)))
        ax = continue_exact(g, z, x)
        ys = smear_oracle(g, x, 2.0 ** np.arange(15), 0.0)
        rescaled = core_rescale(x, ax, ys, continue_exact(g, z, ys))
        worst_cap = max(
            worst_cap,
            float(np.max(rescaled.norm() - x.norm())) / x.norm(),
            float(np.max(continue_exact(g, z, rescaled).norm() - ax.norm())) / ax.norm(),
        )
        worst_tail = max(worst_tail, (rescaled[-1] - x).norm())
    report(4, "core-rescaling norm caps (float rounding slack)", max(worst_cap, 0.0), 1e-12)
    report(4, "core-rescaling convergence to the element", worst_tail, 1e-6)


def test_criterion_5_commuting_and_tensor():
    r = rng(1005)
    grid = [complex(re, im) for re in (-0.5, 0.0, 0.5) for im in (-0.5, 0.0, 0.5)]
    worst_comm = 0.0
    for _ in range(50):
        alpha, beta = random_commuting_flows(r, BlockShape([2, 2]), 2.0)
        pair = CommutingPair(alpha, beta)
        x = random_element(r, BlockShape([2, 2]), 1.0)
        worst_comm = max(worst_comm, float(gamma_continuation_check(pair, grid, x).max()))
    report(5, "commuting-pair product continuation on 3x3 grid", worst_comm, 1e-8)

    worst_tensor = 0.0
    for _ in range(50):
        tf = tensor_flow(
            random_flow(r, BlockShape([2]), 2.0), random_flow(r, BlockShape([2]), 2.0)
        )
        x = random_element(r, BlockShape([2]), 1.0)
        y = random_element(r, BlockShape([2]), 1.0)
        worst_tensor = max(worst_tensor, float(tensor_continuation_check(tf, grid, x, y).max()))
    report(5, "tensor-product continuation on 3x3 grid", worst_tensor, 1e-8)


def test_criterion_6_stone_round_trip():
    r = rng(1006)
    worst_rec = 0.0
    worst_cont = 0.0
    modules = ((BlockShape([2]), 2), (BlockShape([3]), 1), (BlockShape([2, 2]), 1))
    for i in range(50):
        shape, k = modules[i % len(modules)]
        t_op = random_positive_operator(r, shape, k, cond=1e4)
        u = SampledUnitaryGroup.from_positive(t_op)
        t_rec = stone(u)
        worst_rec = max(worst_rec, (t_rec - t_op).norm() / t_op.norm())
        log_norm = op_log(t_op).norm()
        for re in (-2.0, 0.0, 2.0):
            for im in (-1.0, 0.5, 1.0):
                z = complex(re, im)
                err = (op_power(t_rec, 1j * z) - op_power(t_op, 1j * z)).norm()
                worst_cont = max(worst_cont, err / math.exp(abs(im) * log_norm))
    report(6, "recovery round trip over 50 instances", worst_rec, 1e-8)
    report(6, "group continuation against recovered generator", worst_cont, 1e-8)

    worst_wrap = 0.0
    halvings_used = 0
    wraps_exercised = 0
    for spread in (4.0, 5.0, 6.0):
        # log spectrum {spread, 0}: the top phase exceeds pi at t0 = 1
        diag = np.diag([spread, 0.0]).astype(complex)
        k_op = ModuleOperator.from_entries([[AlgebraElement.from_blocks([diag])]])
        from cstarflow import op_exp

        t_op = op_exp(k_op)
        rep = recovery_report(SampledUnitaryGroup.from_positive(t_op), 1.0)
        halvings_used = max(halvings_used, rep["halvings"])
        wraps_exercised += 1 if rep["halvings"] >= 1 else 0
        worst_wrap = max(worst_wrap, max(err for _, err in rep["residual_grid"]))
    assert wraps_exercised == 3 and halvings_used <= 8
    report(6, f"branch-wrap recovery (max {halvings_used} halvings)", worst_wrap, 1e-8)


def test_criterion_7_localization():
    r = rng(1007)
    shape, k = BlockShape([2, 2]), 2
    worst_gram = 0.0
    for _ in range(20):
        omega = random_state(r, shape)
        loc = localize(omega, k)
        for _ in range(5):
            v, w = random_vector(r, shape, k), random_vector(r, shape, k)
            lhs = complex(np.vdot(loc.apply(w), loc.apply(v)))
            rhs = omega.value(inner(v, w))
            worst_gram = max(worst_gram, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(7, "Gram identity of the localization map", worst_gram, 1e-10)

    worst_power = 0.0
    omega = random_state(r, shape)
    loc = localize(omega, k)
    s = random_positive_operator(r, shape, k, cond=100.0)
    s_om = induced_dense(induce(loc, s))
    zs = (0.5, 1j, 1 + 1j)
    for z, rhs in zip(zs, hermitian_matrix_power(s_om, zs)):
        lhs = induced_dense(induce(loc, op_power(s, z)))
        worst_power = max(worst_power, float(np.linalg.norm(lhs - rhs, 2)))
    report(7, "induced complex powers commute with localization", worst_power, 1e-8)

    s = random_operator(r, shape, k)
    bumped = s + 1e-3 * identity_operator(shape, k)
    detected = not separating_check(s, bumped, [random_state(r, shape)])
    flagged = False
    rho = AlgebraElement.from_blocks(
        [np.eye(2) / 2.0, np.zeros((2, 2), dtype=complex)]
    )
    try:
        separating_check(s, s, [PositiveFunctional(rho)])
    except FamilyNotFaithfulError:
        flagged = True
    report(
        7,
        "separation detects 1e-3 perturbation and flags non-faithful families",
        0.0 if (detected and flagged) else 1.0,
        0.0,
    )


def test_criterion_8_implemented_flows():
    r = rng(1008)
    shape, k = BlockShape([2]), 2
    basis = SubalgebraBasis(matrix_unit_operators(shape, k))
    worst_cont = 0.0
    worst_mid = 0.0
    for _ in range(5):
        s_op = random_positive_operator(r, shape, k, cond=1e3)
        t_op = random_positive_operator(r, shape, k, cond=1e3)
        flow = ImplementedFlow(s_op, t_op, basis)
        x = random_operator(r, shape, k, norm=1.0)
        grid = [complex(re, im) for re in (-1.0, 0.0, 1.0) for im in (-1.0, 0.0, 1.0)]
        resid = float(implemented_continuation_check(flow, grid, x).max())
        worst_cont = max(worst_cont, resid / max(1.0, x.norm()))
        omega = random_state(r, shape)
        loc = localize(omega, k)
        scale = max(1.0, s_op.norm() * x.norm() * t_op.norm())
        worst_mid = max(worst_mid, localized_middle_check(loc, s_op, x, t_op) / scale)
    report(8, "implemented continuation formula on the z grid", worst_cont, 1e-8)
    report(8, "localized middle-multiplier identity", worst_mid, 1e-9)


def test_criterion_9_cli_determinism(tmp_path):
    from pathlib import Path

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    mismatches = 0
    for name in EXPERIMENTS:
        config = load_config(config_dir / f"{name}.json")
        run(config, tmp_path / f"{name}_a", quiet=True)
        run(config, tmp_path / f"{name}_b", quiet=True)
        a = (tmp_path / f"{name}_a" / f"{name}.csv").read_bytes()
        b = (tmp_path / f"{name}_b" / f"{name}.csv").read_bytes()
        if a != b:
            mismatches += 1
    report(9, "two runs of every bundled config are byte-identical", float(mismatches), 0.0)
