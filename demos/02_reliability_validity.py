"""Reliability and validity workflow: alpha, KMO, Bartlett, CR/AVE.

Runs the classic scale-quality sequence construct by construct, then reads
CR/AVE and the Fornell-Larcker discriminant check off one CFA of the
measurement model.
"""

import json
from pathlib import Path

import numpy as np

import latentpath as lp

ASSETS = Path(lp.__file__).parent / "assets"
spec = lp.parse_model((ASSETS / "wuliangye.model").read_text())
config = json.loads((ASSETS / "wuliangye_sim.json").read_text())
m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
theta = lp.theta_from_config(m, config["values"], config["defaults"])
data = lp.simulate(m, theta, n=519, seed=42)

print("construct      alpha    KMO   Bartlett chi2      p")
for lat in spec.latents:
    sub = data.subset(list(lat.indicators))
    alpha = lp.cronbach_alpha(sub.complete_rows())
    moments = lp.covariance(sub)
    kmo_val = lp.kmo(moments.R)
    chi2, df, p = lp.bartlett(moments.R, moments.n)
    print(f"{lat.name:<12} {alpha:7.3f} {kmo_val:6.3f} {chi2:14.2f} {p:9.2e}")

# Composite reliability and AVE need standardized loadings; the CFA of the
# measurement model provides them, and its latent correlations feed the
# discriminant check below, so both come from one measurement model.
# Error variances default to 1 - lambda^2. The standardized solution comes
# as the RAM matrices A (loadings at [indicator, latent]) and S, whose rows
# and columns are named by cfa.matrices.variables.
cfa = lp.fit(spec.without_regressions(), lp.covariance(data), compute_se=False)
A_std, S_std = lp.standardize(cfa.matrices, cfa.theta)
pos = {name: i for i, name in enumerate(cfa.matrices.variables)}
print("\nconstruct        CR     AVE   sqrt(AVE)")
ave_by = {}
for lat in spec.latents:
    lam = A_std[[pos[item] for item in lat.indicators], pos[lat.name]]
    cr = lp.composite_reliability(lam)
    ave = lp.average_variance_extracted(lam)
    ave_by[lat.name] = ave
    print(f"{lat.name:<12} {cr:7.4f} {ave:7.4f} {np.sqrt(ave):8.3f}")

# Discriminant validity: each construct's sqrt(AVE) should beat every
# correlation it takes part in. Every latent of a CFA is exogenous, so its
# standardized latent (co)variances are the latent correlations.
order = [lat.name for lat in spec.latents]
idx = [pos[nm] for nm in order]
fl = lp.fornell_larcker({nm: ave_by[nm] for nm in order},
                        S_std[np.ix_(idx, idx)], order)

print("\nFornell-Larcker matrix (diagonal = sqrt AVE):")
with np.printoptions(precision=3, suppress=True):
    print(fl.matrix)
print("verdicts:", fl.passed)
