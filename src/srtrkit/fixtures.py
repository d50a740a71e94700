"""Embedded numerical fixtures for the six-node ring benchmark.

All matrices are transcribed from the printed source data (four decimal
places) and parsed to doubles; nothing here is computed. The registry at the
bottom backs the CLI export command.
"""

from __future__ import annotations

import numpy as np

from .srtr import SparsityPattern, SrtrPair
from .synthesis import RING_HOMOGENEOUS, SynthesisSpec
from .systems import PartitionedRealization, StateSpaceSystem

RING6_A11 = np.array([
    [-11.8035, -2.5928, 0.6483, -0.1498, -0.0059, 1.5415],
    [1.5415, -11.8035, -2.5928, 0.6483, -0.1498, -0.0059],
    [-0.0059, 1.5415, -11.8035, -2.5928, 0.6483, -0.1498],
    [-0.1498, -0.0059, 1.5415, -11.8035, -2.5928, 0.6483],
    [0.6483, -0.1498, -0.0059, 1.5415, -11.8035, -2.5928],
    [-2.5928, 0.6483, -0.1498, -0.0059, 1.5415, -11.8035],
])

RING6_A12 = np.array([
    [-7.3460, -12.0158, 29.1222, -12.1621, 9.7523, -5.1182],
    [-16.0509, 10.1202, 25.3239, -8.1033, -15.2385, 4.0548],
    [-23.7679, 21.4320, 8.6752, 13.6752, 1.5280, -5.1783],
    [-27.0198, 9.8895, -11.8960, -7.4120, 16.8991, 2.4006],
    [-26.0184, -17.3463, -14.7520, -7.3268, -4.8881, -6.5282],
    [-15.8018, -29.0018, 9.5454, 10.1566, 5.3141, 1.5347],
])

RING6_A21 = np.array([
    [0.1795, 0.0818, 0.4039, 0.4133, 0.4137, 0.3992],
    [0.4333, -0.0452, -0.2691, -0.3175, 0.0051, 0.4693],
    [-0.4047, -0.5266, -0.2458, -0.0123, 0.2775, 0.1615],
    [-0.4200, 0.5344, 0.0288, -0.4924, 0.4689, 0.0625],
    [-0.2869, -0.2283, 0.5717, -0.3033, -0.4110, 0.4398],
    [-0.2019, 0.2441, -0.2441, 0.2778, -0.2152, 0.2834],
])

RING6_A22 = np.array([
    [-2.2413, 1.0141, 0.3885, -0.5740, -0.4535, 0.2336],
    [-1.0913, -2.1134, -2.7942, -0.1511, 0.1878, 0.0216],
    [-0.3266, 2.7957, -2.1347, -0.4690, 0.0492, 0.1115],
    [0.6269, 0.2681, 0.3424, -2.8351, 4.0507, -0.0716],
    [0.2603, -0.3236, -0.2731, -4.0526, -2.8072, 0.0350],
    [0.1026, 0.1898, -0.0850, 0.0140, -0.1408, -4.6168],
])

RING6_B1 = np.array([
    [-1.0779, 0.0000, 0.0000, 0.0000, 0.0000, 15.8441],
    [15.8441, -1.0779, 0.0000, 0.0000, 0.0000, 0.0000],
    [0.0000, 15.8441, -1.0779, 0.0000, 0.0000, 0.0000],
    [0.0000, 0.0000, 15.8441, -1.0779, 0.0000, 0.0000],
    [0.0000, 0.0000, 0.0000, 15.8441, -1.0779, 0.0000],
    [0.0000, 0.0000, 0.0000, 0.0000, 15.8441, -1.0779],
])

RING6_B2 = np.array([
    [0.6417, 1.1275, 1.4058, 1.4121, 1.0183, 0.5263],
    [-0.1623, -1.0111, -0.7933, 0.4321, 1.4028, 1.0261],
    [-1.5048, -0.7775, 0.3057, 0.7985, -0.0171, -1.2371],
    [0.5132, -0.2538, -0.0823, 0.3877, -0.1357, 0.1614],
    [0.2803, 0.2855, -0.5768, -0.2496, -0.0568, -0.3892],
    [0.0177, 0.0315, 0.0806, 0.1186, 0.1352, 0.0834],
])

RING6_K = np.array([
    [-0.0259, 0.0404, 0.0610, 0.0693, 0.0776, 0.0821],
    [0.0563, -0.0062, -0.0746, -0.0792, 0.0163, 0.1318],
    [-0.1053, -0.0838, -0.0574, 0.0127, 0.1007, 0.0124],
    [0.0257, 0.1610, -0.1578, -0.0006, 0.1571, -0.1560],
    [-0.1736, 0.1068, 0.0956, -0.1956, 0.0737, 0.0580],
    [0.1935, -0.1927, 0.1912, -0.1835, 0.1914, -0.1767],
])


def ring_adjacency(p: int = 6) -> np.ndarray:
    """Directed cycle: node i listens to node i - 1."""
    F = np.zeros((p, p))
    F[0, p - 1] = 1.0
    for i in range(1, p):
        F[i, i - 1] = 1.0
    return F


def ring6_plant() -> StateSpaceSystem:
    """Twelve-state plant with six stable filter modes and six open-loop
    unstable modes (eigenvalue +1 each)."""
    I6 = np.eye(6)
    Fb = ring_adjacency(6)
    A = np.block([[-0.5 * I6 - 0.1 * Fb, -0.1 * Fb], [np.zeros((6, 6)), I6]])
    B = np.vstack([np.zeros((6, 6)), I6])
    C = np.hstack([I6, I6])
    return StateSpaceSystem(A, B, C, np.zeros((6, 6)), "continuous")


def ring6_controller_base() -> PartitionedRealization:
    """Twelve-state controller realization in output-normal coordinates."""
    return PartitionedRealization(
        A11=RING6_A11, A12=RING6_A12, A21=RING6_A21, A22=RING6_A22,
        B1=RING6_B1, B2=RING6_B2, domain="continuous",
    )


def ring6_gain() -> np.ndarray:
    return RING6_K.copy()


def ring6_pair() -> SrtrPair:
    return SrtrPair(ring6_controller_base(), ring6_gain())


def ring6_masks() -> SparsityPattern:
    mask = (np.eye(6) + ring_adjacency(6)).astype(int)
    return SparsityPattern(mask, mask.copy())


def ring6_spec(orders: int = 1) -> SynthesisSpec:
    masks = ring6_masks()
    return SynthesisSpec(masks.maskW, masks.maskV, (orders,) * 6, RING_HOMOGENEOUS)


# Expected first-order row entries (ascending coefficients, local = own
# column, prev = ring predecessor's column); every other entry is zero.
RING6_EXPECTED_ROWS = {
    "W_local": {"num": [-55.9, -5.255], "den": [9.34, 1.0]},
    "W_prev": {"num": [-15.84, 0.0], "den": [9.34, 1.0]},
    "V_local": {"num": [-94.28, -1.078], "den": [9.34, 1.0]},
    "V_prev": {"num": [-15.84, 15.84], "den": [9.34, 1.0]},
}


def noncoprime_pair() -> SrtrPair:
    """Scalar pair W = -2, V = (lam + 2)/(lam + 1): the factor pair
    [lam I - W, V] loses rank at lam = -2."""
    base = PartitionedRealization(
        A11=[[-2.0]], A12=[[1.0]], A21=[[0.0]], A22=[[-1.0]],
        B1=[[1.0]], B2=[[1.0]], domain="continuous",
    )
    return SrtrPair(base, np.zeros((1, 1)))


def scalar_class_pair(k: float = 0.0) -> SrtrPair:
    """One-parameter scalar family; k = 0 gives W = -1, V = 1."""
    base = PartitionedRealization(
        A11=[[-1.0]], A12=[[1.0]], A21=[[0.0]], A22=[[-1.0]],
        B1=[[1.0]], B2=[[0.0]], domain="continuous",
    )
    return SrtrPair(base, np.array([[float(k)]]))


def integrator_bank_pair(p: int = 3, domain: str = "continuous") -> SrtrPair:
    """W = 0, V = I: the plain integrator bank, encoded without hidden
    states."""
    base = PartitionedRealization(
        A11=np.zeros((p, p)),
        A12=np.zeros((p, 0)),
        A21=np.zeros((0, p)),
        A22=np.zeros((0, 0)),
        B1=np.eye(p),
        B2=np.zeros((0, p)),
        domain=domain,
    )
    return SrtrPair(base, np.zeros((0, p)))


FIXTURES = {
    "ring6-plant": ring6_plant,
    "ring6-controller": ring6_controller_base,
    "ring6-K": ring6_gain,
    "ring6-expected-srtr": lambda: RING6_EXPECTED_ROWS,
    "noncoprime-pair": noncoprime_pair,
}
