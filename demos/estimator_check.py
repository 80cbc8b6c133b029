"""Estimator sanity: recover known exponents from synthetic noise.

fGn is monofractal, so MF-DFA's h(2) (its q = 2 fit, plain DFA) should
land near the target H and the spectrum should be flat (delta_h near
zero) for every H.
"""

from mfload import generate_fgn, mfdfa

LENGTH = 2**14

print(f"{'target H':>9} {'h(2)':>7} {'delta_h':>8}")
for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
    spec = mfdfa(generate_fgn(hurst=hurst, length=LENGTH, seed=1).values)
    print(f"{hurst:9.1f} {spec.h_at(2.0):7.3f} {spec.delta_h:8.3f}")
