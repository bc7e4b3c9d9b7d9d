"""Mediation analysis: effect decomposition and bootstrap intervals.

Total effects are (I - D)^-1 - I, with D the latent block of the RAM
matrix A; subtracting the direct edge leaves the mediated part. A
SRC:MED:DST triple reports the part that passes through MED; here PerVa
is the only mediator, so the two agree. Percentile bootstrap (case
resampling, refit per replicate) gives the interval bounds the verdicts
are read from.
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

# Point decomposition first: no resampling, just the fitted path matrix.
result = lp.fit(spec, lp.covariance(data), compute_se=False)
effects = lp.decompose_fit(result)
for src in spec.exogenous:
    tot, dire, ind = effects.effect(src, "PB")
    print(f"{src:>8} -> PB   total={tot: .3f} direct={dire: .3f} indirect={ind: .3f}")

# Bootstrap intervals; 400 replicates keeps the demo quick, reports
# normally use 2000. The seed pins every replicate, so reruns match.
triples = [("ConsEth", "PerVa", "PB"), ("EnvSt", "PerVa", "PB"),
           ("PBC", "PerVa", "PB")]
decs = lp.bootstrap_ci(data, spec, triples, replicates=400, level=0.95, seed=2024)

print()
for d in decs:
    print(f"{d.source} -> {d.mediator} -> {d.target} ({d.method}, level={d.level:g}, "
          f"{d.n_replicates} replicates kept, {d.n_dropped} dropped)")
    for comp in ("total", "direct", "indirect"):
        lo, hi = getattr(d, f"{comp}_bounds")
        print(f"  {comp:<8} {getattr(d, comp): .3f}  [{lo: .3f}, {hi: .3f}]")
    print(f"  mediation: {d.mediation_verdict()}")

# The same intervals are reproducible; replicate r always draws from a
# generator seeded seed + r. ``workers`` is still accepted but has no
# effect: the replicates are refitted together as one stacked problem.
again = lp.bootstrap_ci(data, spec, triples[:1], replicates=400, level=0.95,
                        seed=2024, workers=4)
assert again[0].indirect_bounds == decs[0].indirect_bounds
print("worker-count invariance holds")
