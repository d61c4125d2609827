"""Effect of the perturbation scale on exploration vs exploitation.

Runs mPSO with several noise levels on an easy unimodal function (Sphere)
and a hard valley function (Rosenbrock), both at d=10.  Small noise barely
disturbs exploitation; large noise floors the achievable precision but keeps
the swarm moving through difficult landscapes.
"""

import numpy as np

import swarmpp as sp
from swarmpp import objectives as ob
from swarmpp.perturbation import NoiseModel

SIGMAS = (0.005, 0.01, 0.02, 0.05)
SEEDS = (1, 2, 3, 4, 5)


def median_best(label, spec, d, noise):
    box = ob.default_domain(spec, d)
    fb = ob.batch_evaluator(spec, d)
    cfg = sp.config_for_label(label)
    if noise is not None:
        cfg = sp.AlgorithmConfig(**{**cfg.__dict__, "noise": noise})
    # the seeds step together as one stack of runs, each giving its solo record
    records = sp.run(cfg, [fb] * len(SEEDS), [box] * len(SEEDS), SEEDS, 2000, [2000])
    finals = [rec.checkpoints[2000] for rec in records]
    return float(np.median(finals))


for flabel in ("F27", "F23"):  # Sphere, Rosenbrock
    spec = ob.get(flabel)
    print(f"\n{spec.name} d=10, median best-so-far after 2000 iterations:")
    print(f"  PSO (no perturbation)      {median_best('PSO', spec, 10, None):.3e}")
    for sigma in SIGMAS:
        v = median_best("mPSO", spec, 10, NoiseModel(kind="gaussian", sigma=sigma))
        print(f"  mPSO sigma={sigma:<6g}         {v:.3e}")
    v = median_best("mPSO", spec, 10, NoiseModel(kind="scaled_t", df=10))
    print(f"  mPSO scaled-t df=10        {v:.3e}")
    print(f"  hmPSO sigma=0.005          {median_best('hmPSO', spec, 10, None):.3e}")

print("\nOn Sphere the noise floor scales with sigma, so smaller is better.")
print("Perturbing every agent (mPSO) costs exploitation everywhere; the")
print("heterogeneous variant keeps half the swarm noise-free and stays")
print("competitive on both landscapes.")
