"""Witnesses of library tolerances that gate a decision: an input just inside each bound is
accepted, and one just past it is refused.

Each witness states its bound as a literal, never as the constant it pins, so a loosened or
tightened constant fails here.  A count such as ``stone.MAX_HALVINGS`` is pinned by an input
that needs exactly that many steps, against one that needs one more.
"""

import numpy as np
import pytest

from cstarflow import (
    AlgebraElement,
    BlockShape,
    BranchAmbiguityError,
    CommutingPair,
    FlowGenerator,
    HermitianElement,
    ModuleOperator,
    NotCommutingError,
    SampledUnitaryGroup,
    SmearingPlan,
    recover,
)
from cstarflow.cli import validate
from cstarflow.stone import hermitian_matrix_power


def element(m) -> AlgebraElement:
    return AlgebraElement.from_blocks([np.asarray(m, dtype=complex)])


@pytest.mark.parametrize("ratio, hermitian", [(0.9e-10, True), (1.1e-10, False)])
def test_herm_tol_is_1e_10_relative(ratio, hermitian):
    # x = 1 + i d e_11 has norm(x - x*) = 2 d and norm(x) = 1 to within 1e-20
    x = element(np.eye(2) + 1j * (ratio / 2.0) * np.diag([1.0, 0.0]))
    assert x.is_hermitian() is hermitian
    if not hermitian:
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianElement(x)


@pytest.mark.parametrize("ratio, commuting", [(0.9e-10, True), (1.1e-10, False)])
def test_comm_tol_is_1e_10_of_the_generator_norms(ratio, commuting):
    # a = diag(1, -1) and b = 1 + e sigma_x: norm([a, b]) = 2 e, and norm(a) norm(b) = 1 + e
    e = ratio / (2.0 - ratio)
    a = HermitianElement(element(np.diag([1.0, -1.0])))
    b = HermitianElement(element(np.eye(2) + e * np.array([[0.0, 1.0], [1.0, 0.0]])))
    alpha, beta = FlowGenerator(a, a), FlowGenerator(b, b)
    if commuting:
        CommutingPair(alpha, beta)
    else:
        with pytest.raises(NotCommutingError, match="left generators"):
            CommutingPair(alpha, beta)


@pytest.mark.parametrize("lowest, positive", [(1.1e-12, True), (0.9e-12, False)])
def test_power_pos_tol_is_1e_12_of_the_largest_singular_value(lowest, positive):
    m = np.diag([1.0, lowest]).astype(complex)
    if positive:
        np.testing.assert_allclose(hermitian_matrix_power(m, 0.5), np.diag(np.sqrt([1.0, lowest])), rtol=1e-12)
    else:
        with pytest.raises(ValueError, match="positive definite"):
            hermitian_matrix_power(m, 0.5)


def diagonal_group(kappas, defect_at: float = np.nan, defect: float = 0.0) -> SampledUnitaryGroup:
    """The group ``t -> exp(i t diag(kappas))`` on one block at k = 1, with the first phase off by
    ``defect`` at the time ``defect_at`` alone."""
    kappas = np.asarray(kappas, dtype=float)

    def evaluate(ts):
        phases = np.multiply.outer(ts, kappas)
        phases[..., 0] += np.where(ts == defect_at, defect, 0.0)
        flat = np.exp(1j * phases)[..., None, :] * np.eye(len(kappas))
        return ModuleOperator(AlgebraElement(BlockShape([len(kappas)]), [flat]), 1)

    return SampledUnitaryGroup(evaluate)


@pytest.mark.parametrize("ratio, halvings", [(0.9e-8, 0), (1.1e-8, 2)])
def test_recovery_tol_is_1e_8_of_the_log_norm(ratio, halvings):
    # a phase defect d = 1.2 ratio at t0/2 = 0.5 alone gives log u(1) - 2 log u(0.5) the norm 2 d, against
    # norm(log u(1)) = 2.4.  Just past the bound, the next step is refused too (d against norm(log u(0.5)) =
    # 1.2), and t0/4 is exact; either way the accepted generator is exact
    d = 1.2 * ratio
    recovery = recover(diagonal_group([2.4, 0.3], defect_at=0.5, defect=d), 1.0)
    assert recovery.halvings == halvings
    np.testing.assert_allclose(np.diag(recovery.generator.flat.blocks[0]).real, [2.4, 0.3], rtol=1e-13)


@pytest.mark.parametrize("needed", [8, 9])
def test_max_halvings_is_8(needed):
    # the phase 2 pi / 3 at t0 / 2^needed doubles to -2 pi / 3 and back, never within pi / 2 of 0,
    # so every coarser step is refused and the accepted one is t0 / 2^needed; T = exp(kappa) 1
    kappa = 2.0 * np.pi / 3.0 * 2.0**needed
    u = diagonal_group([kappa, kappa])
    if needed == 8:
        recovery = recover(u, 1.0)
        assert recovery.halvings == 8
        assert recovery.t0_used == 1.0 / 256.0
    else:
        with pytest.raises(BranchAmbiguityError, match="halving did not stabilize after 8 steps"):
            recover(u, 1.0)


def test_max_nodes_is_16384():
    assert SmearingPlan(1.0, 0.5j, 16384).nodes == 16384
    with pytest.raises(ValueError, match="16384"):
        SmearingPlan(1.0, 0.5j, 16385)


@pytest.mark.parametrize("r, nodes", [(0.000467, 16383), (0.00046696, 16385)])
def test_max_nodes_caps_a_converge_rule_at_16384(r, nodes):
    # nu_max = 4 at z = 0: the rule's budget 2 / r is 4282.7 for 16383 nodes and 4283.0 for 16385
    _, problems = validate({"experiment": "converge", "seed": 1, "shape": [2], "grid": {"r": [r], "z_im": [0.0]}})
    refused = [f"grid.r = {r!r} with max|z_im| = 0.0 needs {nodes} quadrature nodes, above the cap of 16384"]
    assert problems == ([] if nodes < 16384 else refused)
