"""Brute-force validation: a discretized bath converging to the exact solution.

Replace the continuum by a finite comb of levels, with no wideband
elimination, and solve the steady state of the full Lindblad generator
exactly (its continuum-continuum block is eliminated by an exact Schur
complement, which loses nothing).
The ladder widens the band at a fixed unit level spacing, and the
populations approach the effective-generator result with an error of the
form a/W + b (b set by the spacing), shown rung by rung.  This quantifies
the accuracy of the wideband solution (and of this discretization class).

Run:  python demos/04_oracle_convergence.py
"""

from fanosolve import DiscretizationSpec, FanoParams, convergence_study, fano_model

params = FanoParams(epsilon=0.5, q=1.0, Omega=0.05, Gamma_e=0.1, Gamma_cg=2.0)
ladder = [
    DiscretizationSpec(bandwidth=25.0, levels_per_continuum=26),
    DiscretizationSpec(bandwidth=50.0, levels_per_continuum=51),
    DiscretizationSpec(bandwidth=100.0, levels_per_continuum=101),
    DiscretizationSpec(bandwidth=200.0, levels_per_continuum=201),
]
study = convergence_study(fano_model(params), ladder, params.epsilon)

print(f"effective solution: continuum population {study.nc_reference:.6e}, "
      f"transfer rate {study.r_reference:.6e}")
print()
print("  bandwidth  levels   population      rel.error    rate rel.error")
for w, mk, nc, enc, er in zip(study.bandwidths, study.levels,
                              study.nc_oracle, study.nc_errors,
                              study.r_errors):
    print(f"  {w:9.0f}  {mk:6d}   {nc:.6e}   {enc:10.2e}   {er:10.2e}")
print()
print(f"errors decrease along the ladder: {study.decreasing}")
