"""Exploratory factor analysis: extraction, retention, varimax, display.

Eigenvalues of the item correlation matrix decide how many components to
keep (Kaiser: strictly greater than one); varimax then rotates toward
simple structure, and the display table suppresses small loadings the way
survey reports usually do.
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

moments = lp.covariance(data)
loadings = lp.extract(moments.R, retention="kaiser", names=moments.names)

print("eigenvalues:", np.round(loadings.eigenvalues, 3))
print("retained (eigenvalue > 1):", loadings.n_factors)
print("eigenvalue sum equals p:", float(loadings.eigenvalues.sum()))

rotated = lp.varimax(loadings)
print("\ncommunalities preserved by rotation:",
      bool(np.allclose(rotated.communalities, loadings.communalities)))

table = lp.rotated_component_table(rotated, suppress_below=0.4)
print(f"\nrotated component matrix (|loading| < {table.threshold:g} blank), "
      "items grouped by their dominant factor:")
print("item  " + "".join(f"{f'F{j + 1}':>8}" for j in range(rotated.n_factors)))
for item, cells in zip(table.names, table.cells):
    print((f"{item:<6}" + "".join(f"{c:8.3f}" if c is not None else " " * 8
                                  for c in cells)).rstrip())
print("dominant factor per row:", [j + 1 for j in table.dominant])
