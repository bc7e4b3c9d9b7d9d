"""Maximum-likelihood estimation of the full structural model.

Minimizes log|Sigma(theta)| + tr(S Sigma(theta)^-1) - log|S| - p by Fisher
scoring on the expected information with an analytic gradient, then
reports regression weights with expected-information standard errors, the
goodness-of-fit index suite, and the standardized solution.
"""

import json
from pathlib import Path

import latentpath as lp

ASSETS = Path(lp.__file__).parent / "assets"
spec = lp.parse_model((ASSETS / "wuliangye.model").read_text())
config = json.loads((ASSETS / "wuliangye_sim.json").read_text())
m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
theta = lp.theta_from_config(m, config["values"], config["defaults"])
data = lp.simulate(m, theta, n=519, seed=42)

result = lp.fit(spec, lp.covariance(data))
print(f"converged: {result.converged} after {result.iterations} iterations")
print(f"F_min = {result.f_min:.6f}, chisq = {result.chisq:.2f}, df = {result.df}")

print("\nregression weights (raw, standard error, critical ratio, p, standardized):")
for row in result.parameter_table(kind="path"):
    print(f"  {row['label']:<16} {row['estimate']: .3f} {row['se']:6.3f} "
          f"{row['crit_ratio']:7.2f} {row['p']:9.2e} {row['standardized']: .3f}  "
          f"{row['hypothesis'] or ''}".rstrip())

indices = lp.from_fit(result)
print("\nfit indices (meets its standard?):")
values = indices.values()
for key, passed in indices.passed.items():
    value = "undefined" if values[key] is None else f"{values[key]:.3f}"
    print(f"  {key:<9} {value:>9}  {passed}")

# The hypothesis verdicts follow the labeled paths in the model file.
for v in lp.classify_hypotheses(result):
    print(f"{v.label}: {v.path:<16} -> {v.verdict} ({v.detail})")
