#!/usr/bin/env python3
"""Initial-SDR seed sweep: the evidence base behind the restart trick.

Builds a fresh (untrained) model per seed and reports its dev-set SDR. Seeds
whose initial SDR is unusually low tend to train into bad local minima; the
training loop restarts until the initial SDR clears a threshold.
"""

import argparse

from furcasep.corpus import load_corpus, write_jsonl
from furcasep.model import ModelConfig
from furcasep.training import initial_sdr_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dev", required=True, help="dev manifest path")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    parser.add_argument("--out", default=None, help="optional JSONL output path")
    args = parser.parse_args(argv)

    dev_set = load_corpus(args.dev)
    results = initial_sdr_sweep(ModelConfig(), dev_set, seeds=range(args.seeds))
    for row in results:
        print(f"seed {row['seed']:3d}  initial dev SDR {row['mean_sdr_db']:8.3f} dB")
    values = [row["mean_sdr_db"] for row in results]
    print(f"spread: best {max(values):.3f} dB, worst {min(values):.3f} dB")
    if args.out:
        write_jsonl(args.out, results)  # strict JSON: a NaN SDR raises, naming the file
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
