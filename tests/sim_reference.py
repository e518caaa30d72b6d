"""Reference closed-loop simulator: the plain-float loop, one replica at a time.

It draws the same random numbers as `rctc.lqg.simulate_closed_loop`: four
streams spawned from SeedSequence(seed) give the start states, then per frame
a block of shape (N, replicas) each of standard exponential delays (an index
is in when its delay is at most its deadline times the delay rate), modeled
quantizer noise and process noise.
It then steps every replica on its own with Python floats.  It
shares no loop code with the product, so it is the oracle the vectorised
simulator's per-replica costs are checked against.  With replicas = 1 it is
one long run, the loop's original form.
"""
import math

import numpy as np


def segment_lengths(horizon, frame_length, replicas):
    """Whole frames shared out evenly, the first replicas taking one more;
    the partial last frame goes to the first replica with one frame fewer."""
    full, tail = divmod(horizon, frame_length)
    frames, extra = divmod(full, replicas)
    lengths = [frames * frame_length + (frame_length if r < extra else 0)
               for r in range(replicas)]
    lengths[extra] += tail
    return lengths


def reference_loop(plant, weights, solution, transform, bank, channel_model, horizon,
                   seed, divergence_bound=1e9, replicas=64):
    """(per-replica cost sums, per-replica steps, diverged) of the coded loop.

    A replica's state is checked against divergence_bound at each of its frame
    ends and after its last step; the run stops at the end of the first frame
    in which any replica crossed it, for every replica.
    """
    n = transform.frame_length
    lengths = segment_lengths(horizon, n, replicas)
    f = float(plant.F[0, 0])
    g = float(plant.G[0, 0])
    l = float(solution.L[0, 0])
    r_w = float(weights.R[0, 0])
    s_w = float(weights.S[0, 0])
    k_w = float(plant.K_w[0, 0])
    sqrt_kw = math.sqrt(k_w)
    a = f + g * l
    enc_rows = [[float(transform.encoder_coeffs[i, j]) for j in range(i)] for i in range(n)]
    dec_rows = [[float(transform.decoder_coeffs[i, j]) for j in range(i)] + [1.0]
                for i in range(n)]
    thr_rows = [[(channel_model.deadline + (i - j) * channel_model.sample_period)
                 * channel_model.delay_rate for j in range(i + 1)] for i in range(n)]
    modeled = bank is not None
    if modeled:
        sigma_q = [math.sqrt(float(v)) for v in bank.noise_variances]

    start_rng, delay_rng, q_rng, w_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    starts = (math.sqrt(k_w / (1.0 - a * a)) * start_rng.standard_normal(replicas)).tolist()
    blocks = []
    for _ in range(-(-max(lengths) // n)):
        delays = delay_rng.standard_exponential((n, replicas)).tolist()
        q_noise = q_rng.standard_normal((n, replicas)).tolist() if modeled else None
        w_noise = w_rng.standard_normal((n, replicas)).tolist()
        blocks.append((delays, q_noise, w_noise))

    # per replica: cost sum at the end of each of its frames, and the first
    # frame after which its state was out of bounds
    frame_sums, first_out = [], []
    for r in range(replicas):
        x = starts[r]
        xc = [0.0] * n
        total = 0.0
        sums = []
        out = None
        for t in range(lengths[r]):
            frame, i = divmod(t, n)
            delays, q_noise, w_noise = blocks[frame]
            d_val = x
            for j in range(i):
                d_val -= enc_rows[i][j] * xc[j]
            xc[i] = d_val + sigma_q[i] * q_noise[i][r] if modeled else d_val
            xhat = 0.0
            for j in range(i + 1):
                if delays[j][r] <= thr_rows[i][j]:
                    xhat += dec_rows[i][j] * xc[j]
            u = l * xhat
            e = x - xhat
            total += r_w * xhat * xhat + s_w * u * u + r_w * e * e
            x = f * x + g * u + sqrt_kw * w_noise[i][r]
            if i == n - 1 or t == lengths[r] - 1:
                sums.append(total)
                if not (abs(x) <= divergence_bound):
                    out = frame
                    break
        frame_sums.append(sums)
        first_out.append(out)

    crossed = [frame for frame in first_out if frame is not None]
    stop = min(crossed) if crossed else None
    totals, steps = [], []
    for r in range(replicas):
        kept = frame_sums[r] if stop is None else frame_sums[r][:stop + 1]
        totals.append(kept[-1] if kept else 0.0)
        steps.append(min(lengths[r], len(kept) * n))
    return totals, steps, stop is not None
