"""Parse a model description, inspect its parameter map, simulate data.

The bundled `wuliangye.model` describes five consumer-behavior constructs
measured by 21 survey items; perceived value sits between three
antecedents and purchase behavior. This script walks the compile step:
text -> ModelSpec -> parameter matrices -> degrees of freedom, then draws
a synthetic dataset from planted parameter values.
"""

import json
from pathlib import Path

import latentpath as lp

ASSETS = Path(lp.__file__).parent / "assets"

text = (ASSETS / "wuliangye.model").read_text()
print(text)

spec = lp.parse_model(text)
print("latents:", spec.latent_names)
print("exogenous:", spec.exogenous)
print("endogenous:", spec.endogenous)
print("labeled paths:", spec.labels)

# Compile against the indicator order used by the data file. The first
# indicator listed for each construct is its marker (loading fixed to 1).
m = lp.build_matrices(spec, spec.indicator_names)
df = lp.count_df(m)
print(f"\nfree parameters t = {m.n_free}")
print(f"sample moments p(p+1)/2 = {m.n_free + df}")
print(f"degrees of freedom = {df} (under-identified: {df < 0})")

print("\nfirst ten free parameters:")
for label in m.labels[:10]:
    print("   ", label)

# Simulation uses the variance-standardized parameterization so the
# planted values in the JSON config read like standardized coefficients.
config = json.loads((ASSETS / "wuliangye_sim.json").read_text())
m_std = lp.build_matrices(spec, spec.indicator_names,
                          standardize_latents=config["standardize_latents"])
theta = lp.theta_from_config(m_std, config["values"], config["defaults"])

data = lp.simulate(m_std, theta, n=519, seed=42)
print(f"\nsimulated dataset: n={data.n}, p={data.p}")

out = Path(__file__).with_name("demo_data.csv")
lp.save_table(data, out)
print("wrote", out)

# The implied covariance at the planted values is what the sample
# covariance estimates; at n=519 the entries agree to ~0.05.
sigma = lp.implied_covariance(m_std, theta)
S = lp.covariance(data).S
print("max |S - Sigma(theta)| =", float(abs(S - sigma).max()))
