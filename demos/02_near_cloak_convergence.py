"""Near-cloak performance: the h^2 convergence of the boundary map.

The regularized cloak with its lossy lining should render any content
invisible up to O(h^N): the Neumann-to-Dirichlet map of the device
approaches the free-space map at rate 2 in 2D. The convergence sweep
walks the equivalent virtual three-layer disk per Fourier mode, from
the content out to the free background, and fits the log-log rate, once
per content, to exhibit content independence. Its defaults: omega = 1,
n_max = 16, a unit background and h = 0.2, 0.1, 0.05, 0.025.
"""

from elastocloak import convergence_sweep

labels = {
    "soft": "soft  (lam=mu=0.2)",
    "stiff": "stiff (lam=mu=5.0)",
    "heavy": "heavy (rho=4)     ",
}
rep = convergence_sweep({})
h_values = [r["h"] for r in rep["contents"]["soft"]["rows"]]

print("||Lambda_h - Lambda_0|| for the lossy near-cloak, per content:\n")
print(f"{'content':<20}" + "".join(f"  h={h:<8}" for h in h_values) + "  slope   r2")
for name, data in rep["contents"].items():
    row = "".join(f"  {r['distance']:9.3e}" for r in data["rows"])
    fit = data["fit"]
    print(f"{labels[name]:<20}{row}  {fit['slope']:5.3f}  {fit['r2']:.4f}")

print("\ncross-content spread per h (the rate constant is content independent):")
for s in rep["spreads"]:
    print(f"  h={s['h']:<6} spread = {s['spread']:6.3f}")
