"""The benchmark's workloads and their seeded input generators.

Every input array is generated here, from the workload name, the seed and
the index of the set-up it is for (the channel layout from the fixed
LAYOUT_SEED), and handed to the solver as plain arrays, so a change to the
solver's own generators (`medium.synthesize_channels`, `models`) cannot
change a workload.
"""

import zlib
from dataclasses import dataclass

import numpy as np

import fem

NX = 120  # fine cells per direction
K = 16.0
NBF = 4


@dataclass(frozen=True)
class Inputs:
    """Per-cell coefficient and the data sets (f, g) solved over it."""

    a_cells: np.ndarray
    data: list  # of (f_nodal, g_nodal) complex arrays
    description: str


def mirror(i, values):
    """Per-cell or per-node values under the i-th (mod 8) symmetry of the unit square."""
    n = int(round(np.sqrt(values.size)))
    v = values.reshape(n, n)
    if i % 8 >= 4:
        v = v.T
    return np.ascontiguousarray(np.rot90(v, i % 4)).ravel()


@dataclass(frozen=True)
class Workload:
    name: str
    NH: int  # coarse elements per direction, H = 1 / NH
    m: int  # oversampling layers
    tol_l2: float
    tol_energy: float
    round_s: float  # one set-up and its solves on the reference machine, seconds
    draw: object  # numpy Generator -> Inputs

    def rounds(self, seconds):
        """Rounds in a run of about `seconds`: set by the argument, not by the machine's speed."""
        return max(1, round(seconds / self.round_s))

    def inputs(self, seed, i):
        """Inputs of set-up i of a run.

        Drawn from (seed, i) and mirrored by the i-th symmetry of the square,
        which maps the impedance problem onto itself, so set-ups 0-7 of a run
        see eight different coefficient arrays of one medium (the homogeneous
        one aside) and no data set is solved twice.
        """
        rng = np.random.default_rng([zlib.crc32(self.name.encode()), int(seed), int(i)])
        base = self.draw(rng)
        return Inputs(
            mirror(i, base.a_cells),
            [(mirror(i, f), mirror(i, g)) for f, g in base.data],
            f"{base.description}; symmetry {i % 8}",
        )


CHANNELS = 8  # alternately horizontal and vertical, THICKNESS cells thick
THICKNESS = 1
# Parallel channels keep GAP cells between their lanes, so no two merge into
# one thicker inclusion; an element of H = 1/10 (12 cells wide) holds at most
# two parallel ones.
GAP = 8
MARGIN = 2  # cells between the boundary and the outermost lanes


def channel_mask(nx, rng):
    """Cells of CHANNELS straight channels, each 60-95 % of the domain long from a random start."""
    mask = np.zeros((nx, nx), dtype=bool)  # [row = y, column = x]
    lanes = {True: [], False: []}
    for c in range(CHANNELS):
        horizontal = c % 2 == 0
        length = int(nx * rng.uniform(0.6, 0.95))
        start = int(rng.integers(0, nx - length + 1))
        free = [
            lane
            for lane in range(MARGIN, nx - MARGIN - THICKNESS + 1)
            if all(abs(lane - used) >= GAP for used in lanes[horizontal])
        ]
        lane = int(rng.choice(free))
        lanes[horizontal].append(lane)
        if horizontal:
            mask[lane : lane + THICKNESS, start : start + length] = True
        else:
            mask[start : start + length, lane : lane + THICKNESS] = True
    return mask.ravel()


def bump(nx, centre, radius):
    """exp(-1 / (1 - r^2 / radius^2)) inside the disk, 0 outside."""
    xy = fem.node_coords(nx)
    r2 = ((xy - np.asarray(centre)) ** 2).sum(axis=1) / radius**2
    f = np.zeros(xy.shape[0])
    inside = r2 < 1.0
    f[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return f.astype(complex)


# The channel layout is drawn once, from this seed; --seed draws the
# sources.  With the layout drawn per seed, the energy error of a Model-3
# solve (H = 1/20, m = 3) moved by up to 60 % between seeds (3.2e-4 to
# 6.4e-4 over five seeds, and 11 % when only the channel value moved within
# +-25 %), wider than any regression bound on it could be.
LAYOUT_SEED = 7


def layout():
    return channel_mask(NX, np.random.default_rng(LAYOUT_SEED))


def _plane_wave_h40(rng):
    """Model 1: A = 1, no source, impedance data of a plane wave.

    The direction is drawn within 0.1 rad of Model 1's (0.6, 0.8).
    """
    theta = float(np.arctan2(0.8, 0.6) + rng.uniform(-0.1, 0.1))
    a = np.ones(NX * NX)
    zero = np.zeros((NX + 1) ** 2, dtype=complex)
    g = fem.plane_wave_nodal_g(NX, K, theta)
    return Inputs(a, [(zero, g)], f"homogeneous; plane wave at theta = {theta:.6f}")


# bump centres: each within SHOT_JITTER (per coordinate) of one of these
# anchors.  With 0.1 the worst energy error of a run spread 25 % between
# seeds (five seeds), as a source moved onto or off a stiff channel.
SHOT_ANCHORS = ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75))
SHOT_JITTER = 0.02


def _shots_h10(rng):
    """Model 3: stiff channels (A = 1000 in background 1), bump sources of radius 0.05."""
    a = np.where(layout(), 1e3, 1.0)
    zero = np.zeros((NX + 1) ** 2, dtype=complex)
    centres = np.array(SHOT_ANCHORS) + rng.uniform(-SHOT_JITTER, SHOT_JITTER, size=(len(SHOT_ANCHORS), 2))
    data = [(bump(NX, c, 0.05), zero) for c in centres]
    return Inputs(a, data, f"stiff channels, contrast 1e-3; bump sources at {centres.round(4).tolist()}")


# round_s, measured at seed 7: with --seconds 50 a run has two rounds of each
WORKLOADS = {
    w.name: w
    for w in (
        # factor-3 band over the published Model-1 errors at H = 1/40
        Workload("plane-wave-h40", 40, 3, 5.8e-4, 1.19e-2, 26.0, _plane_wave_h40),
        # high-contrast criterion of the project
        Workload("shots-h10", 10, 2, 0.05, 0.10, 22.0, _shots_h10),
    )
}
