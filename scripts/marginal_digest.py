"""Two sha256 lines over the detector marginals of fixed matrices of cases.

A kernel refactor that claims "same bits" runs this script on the source
tree before and after the change and compares the output:

    python scripts/marginal_digest.py src            # this tree
    python scripts/marginal_digest.py /path/to/src   # another checkout

The argument is the directory that holds the `scma` package; it is put
first on the import path. The first line covers the MPA engines, over
engines x systems x channels x SNR x trial counts:

* engines: `batch_mpa` at damping 0 and 0.3, `batch_mpa` on collapsed
  projections, and `batch_split` where it applies (separable systems and
  real gains: the uplink gains enter as their magnitudes);
* systems: 4pt, LDS (M = 4 and 16), T16 and lowproj (J = 6, 4, 2) on
  K = 4, N = 2, and, for split only, T16 and lowproj with all-ones phases;
* channels: AWGN and uplink Rayleigh; SNR 8 and 20 dB (per layer);
* trials per call: 1, 2, 17, 129 and 512.

The second line covers `batch_map` on every one of those systems whose M**J
joint hypotheses the oracle enumerates (4pt, LDS M = 4, lowproj J = 4 and
2), over the same channels, SNRs and trial counts, once told the true noise
variance and once told MISMATCH times it: then up to about half the trials
of a call sum their product weights below the oracle's floor and are
recomputed in the log domain, so the line covers that fallback too.

Each case draws its trials from its own seeded generator, and a digest
covers each case's name and its marginals' bytes, in a fixed order.
Runtime: about 20 seconds on a 2-core machine.

With `--threads 2` the cases of each row of the matrix run on two threads
at once, assigned to them alternately, and are digested in the same fixed
order; the two lines must match the serial run's, since each thread's
detector calls must get the bits of a serial call.
"""

import argparse
import functools
import hashlib
import sys
import threading

import numpy as np

SYSTEMS = [("4pt", 6, 4), ("lds", 6, 4), ("lds", 6, 16), ("t16", 6, 16),
           ("lowproj", 6, 16), ("lowproj", 4, 16), ("lowproj", 2, 16)]
MODES = ("awgn", "uplink_rayleigh")
SNRS_DB = (8.0, 20.0)
TRIALS = (1, 2, 17, 129, 512)
MAX_ITER = 4
MISMATCH = 1e-2


def identity_phase_system(scma, mother):
    """Full K = 4, N = 2 graph with all-ones phases: separable with any
    mother that factors into real and imaginary parts."""
    graph = scma.factor_graph.build_full_graph(4, 2)
    ops = tuple(scma.codebook.LayerOperator(phases=np.ones(2, dtype=complex))
                for _ in range(graph.n_layers))
    cbs = tuple(
        scma.codebook.build_codebook(
            mother, op, scma.factor_graph.mapping_matrix(graph.signature(j)))
        for j, op in enumerate(ops)
    )
    return scma.codebook.ScmaSystem(graph=graph, mother=mother, operators=ops, codebooks=cbs)


def trials(scma, system, mode, snr_db, size, seed):
    """(y, gains, noise_var) of `size` seeded trials."""
    rng = np.random.default_rng(seed)
    tx = rng.integers(0, system.alphabet_size, (size, system.n_layers))
    cw = np.stack([system.codebooks[j].codewords[tx[:, j]] for j in range(system.n_layers)],
                  axis=1)
    gains = scma.channel_model.sample_gains(
        mode, system.n_layers, system.n_resources, rng, size=size)
    nv = scma.channel_model.snr_to_noise_variance(snr_db, system, "per_layer").variance
    noise = scma.channel_model.sample_noise(nv, system.n_resources, rng, size=size)
    return (gains * cw).sum(axis=1) + noise, gains, nv


def cases(scma):
    """(name, system, engine, the engine's arguments after noise_var) per
    system and engine, in a fixed order."""
    det = scma.mpa_detector
    named = {(s, j, m): scma.codebook.build_named_system(s, 4, 2, j, m) for s, j, m in SYSTEMS}
    for (scheme, j, m), system in named.items():
        name = f"{scheme}-J{j}-M{m}"
        yield f"{name}/mpa", system, det.batch_mpa, (MAX_ITER,)
        yield f"{name}/mpa-damped", system, det.batch_mpa, (MAX_ITER, 0.3)
        tables = det.collapse_projections(system)
        yield f"{name}/mpa_collapsed", system, det.batch_mpa, (MAX_ITER, 0.0, tables)
    split = [(f"{s}-J{j}-M{m}", named[(s, j, m)]) for s, j, m in SYSTEMS
             if named[(s, j, m)].is_separable]
    for mother in ("t16qam", "low_projection_16point"):
        system = identity_phase_system(scma, getattr(scma.constellation, mother)())
        split.append((f"{mother}-identity-phases", system))
    for name, system in split:
        yield f"{name}/split", system, det.batch_split, (MAX_ITER,)


def map_cases(scma):
    """(name, system, engine, ()) per system of SYSTEMS within the MAP
    oracle's hypothesis cap: batch_map, then batch_map told MISMATCH times
    the true noise variance, in a fixed order."""
    det = scma.mpa_detector

    def mismatched(y, gains, system, nv):
        return det.batch_map(y, gains, system, nv * MISMATCH)

    for scheme, j, m in SYSTEMS:
        if m**j <= det.MAX_JOINT_HYPOTHESES:
            system = scma.codebook.build_named_system(scheme, 4, 2, j, m)
            yield f"{scheme}-J{j}-M{m}/map", system, det.batch_map, ()
            yield f"{scheme}-J{j}-M{m}/map-nv{MISMATCH:g}", system, mismatched, ()


def run(calls, threads):
    """The results of `calls` (zero-argument functions), in order; with
    several threads, call i runs on thread i % threads, all at once."""
    if threads == 1:
        return [call() for call in calls]
    results = [None] * len(calls)

    def work(first):
        for i in range(first, len(calls), threads):
            results[i] = calls[i]()

    pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if any(r is None for r in results):
        raise RuntimeError("a detector call failed on a worker thread")
    return results


def digest(scma, matrix, threads=1) -> tuple[str, int]:
    """(hex sha256 over every case of `matrix`, the number of cases); each
    matrix row's cases run on `threads` threads."""
    h = hashlib.sha256()
    count = 0
    for c, (name, system, engine, args) in enumerate(matrix):
        labels, calls = [], []
        for mode in MODES:
            for snr_db in SNRS_DB:
                for size in TRIALS:
                    seed = [c, MODES.index(mode), int(snr_db), size]
                    y, gains, nv = trials(scma, system, mode, snr_db, size, seed)
                    if engine is scma.mpa_detector.batch_split:
                        gains = np.abs(gains)  # split needs real gains
                    labels.append(f"{name}/{mode}/{snr_db}/{size}")
                    calls.append(functools.partial(engine, y, gains, system, nv, *args))
        for label, marginals in zip(labels, run(calls, threads)):
            h.update(label.encode())
            h.update(np.ascontiguousarray(marginals, dtype=np.float64).tobytes())
            count += 1
    return h.hexdigest(), count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="directory holding the scma package")
    parser.add_argument("--threads", type=int, default=1,
                        help="run each row's cases on this many threads, alternately")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import scma.channel_model
    import scma.codebook
    import scma.constellation
    import scma.factor_graph
    import scma.mpa_detector

    for matrix, label in ((cases(scma), "cases"), (map_cases(scma), "map cases")):
        hexdigest, count = digest(scma, matrix, args.threads)
        print(f"{hexdigest}  {count} {label}")


if __name__ == "__main__":
    main()
