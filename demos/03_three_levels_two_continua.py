"""A structured system: three discrete levels feeding two continua.

The same elimination recipe covers any discrete-continuum layout.  Here the
parameter set of demos/two_band_demo.yaml (two driven excited levels, two bands with
different couplings) produces two asymmetric resonances in the total
continuum population as the drive frequency sweeps across both levels.
At each resonance the script prints the stationary populations and the
photon absorption rate, which the same observable layer computes for any
model.

Run:  python demos/03_three_levels_two_continua.py
Equivalent CLI:  fanosolve general --config demos/two_band_demo.yaml --out sweep.csv
"""

import pathlib

import numpy as np

from fanosolve import general_sweep, observable
from fanosolve.config import load_config

cfg = load_config(str(pathlib.Path(__file__).parent / "two_band_demo.yaml"))
model = cfg.model
grid = cfg.sweep.grid()

rho, pops = general_sweep(model, grid)
absorption = observable(model, "absorption", rho, pops)
pop_a, pop_b = pops.T
ground = rho[:, 0, 0].real

total = pop_a + pop_b
peaks = np.flatnonzero((total[1:-1] > total[:-2]) & (total[1:-1] > total[2:])) + 1
print(f"swept omega_L over [{grid[0]:g}, {grid[-1]:g}] in {len(grid)} steps")
print(f"resonances at omega_L = " + ", ".join(f"{grid[p]:.2f}" for p in peaks))
for p in peaks:
    print(f"  at {grid[p]:.2f}: continuum A holds {pop_a[p]:.4f}, "
          f"B holds {pop_b[p]:.4f}, ground keeps {ground[p]:.4f}, "
          f"absorbs {absorption[p]:.4e} photons per unit time")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(5.5, 3.6))
    ax.plot(grid, pop_a, label="continuum A")
    ax.plot(grid, pop_b, label="continuum B")
    ax.plot(grid, total, "k--", lw=1, label="total")
    ax.set_xlabel(r"$\omega_L$")
    ax.set_ylabel("stationary population")
    ax.legend(fontsize=8)
    fig.tight_layout()
    out = pathlib.Path(__file__).parent / "two_continua_sweep.png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")
