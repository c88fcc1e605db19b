#!/usr/bin/env python3
"""Object-permanence contrast on hiding sequences.

Trains the memory-backed model and the history-free single-view baseline on
identical curtain-occlusion data, then compares their Jaccard on the frames
where the object is fully hidden. The memory model keeps predicting the
remembered shape; the baseline cannot know which object was there.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from shapestream.metrics import jaccard_values
from shapestream.model import ModelConfig, stream_predictions
from shapestream.scenes import fully_occluded_frames, gen_object, make_sequence
from shapestream.train import train


def occluded_jaccard(model, seqs) -> float:
    vals = []
    for seq in seqs:
        occluded = set(fully_occluded_frames(seq))
        preds = stream_predictions(model, seq.frames)
        for i, (pred, target) in enumerate(zip(preds, seq.targets)):
            if i in occluded:
                vals.append(jaccard_values(pred.values, target.values))
    return float(np.mean(vals))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=700)
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument("--out", default="runs/permanence")
    args = parser.parse_args()

    seqs, data = [], []
    for i, kind in enumerate(("box", "sphere", "cylinder", "lshape")):
        obj = gen_object(kind, seed=300 + i)
        seq = make_sequence("object_hiding", [obj], 8, seed=400 + i, resolution=16)
        seqs.append(seq)
        data.append((seq.frames, seq.targets))
    print("fully occluded frames per sequence:",
          [fully_occluded_frames(s) for s in seqs])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores = {}
    for variant in ("mvp", "single_view"):
        config = ModelConfig(variant=variant, resolution=16, latent_dim=128,
                             qk_dim=32, kernel="relu", performer_layers=2,
                             conv_channels=(8, 16, 32), train_views=12, seed=0)
        t0 = time.time()
        result = train(config, data, [], steps=args.steps,
                       checkpoint_path=out / f"{variant}.mvpc",
                       learning_rate=args.lr, val_every=100,
                       stop_at_train_jaccard=0.93)
        scores[variant] = occluded_jaccard(result.model, seqs)
        print(f"{variant:12s} train jaccard {result.final_train_jaccard:.3f}, "
              f"occluded-frame jaccard {scores[variant]:.3f} "
              f"({result.steps_run} steps, {time.time() - t0:.0f}s)")
    print(f"margin (mvp - single_view): {scores['mvp'] - scores['single_view']:+.3f}")


if __name__ == "__main__":
    main()
