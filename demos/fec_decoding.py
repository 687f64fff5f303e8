#!/usr/bin/env python3
"""Min-sum decoding on a small regular LDPC code.

Builds a rate-1/2 (3,6)-regular code, round-trips it through the alist
text format, and decodes BPSK over a range of Eb/N0, printing the BER
before and after decoding plus the mean iteration count.  The words sent
are the all-zero codeword: min-sum is symmetric under any codeword's
signs, so every decoded one is a bit error.
"""

import math
import os

import numpy as np

from shapelink import fec

N = 1024
WORDS = 200

h = fec.make_regular_ldpc(N, row_weight=6, col_weight=3, seed=7)
os.makedirs("out_fec", exist_ok=True)
fec.save_alist(h, "out_fec/regular_1024.alist")
h = fec.load_alist("out_fec/regular_1024.alist")  # same matrix back
k = h.cols - h.rank
rate = k / h.cols
print(f"({h.cols}, {k}) code, rate {rate:.3f}, {h.n_edges} edges")

rng = np.random.default_rng(0)

print(f"\n{'Eb/N0':>6s} {'pre-BER':>9s} {'post-BER':>9s} {'iters':>6s}")
for ebn0_db in (1.0, 2.0, 3.0, 4.0):
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    rx = 1.0 + rng.normal(scale=math.sqrt(sigma2), size=(WORDS, h.cols))  # BPSK +1
    llrs = 2.0 * rx / sigma2
    pre = float(np.mean(llrs < 0))
    res = fec.ldpc_decode(llrs, h)
    post = float(np.mean(res.bits))
    print(f"{ebn0_db:6.1f} {pre:9.5f} {post:9.5f} {res.iterations.mean():6.1f}")

print("\nthe hard-decision gate that follows an inner decode:")
for ber in (2e-4, 3e-4, 4e-4):
    print(f"  ber {ber:.1e}: {'pass' if fec.post_fec_gate(ber) else 'fail'}")
