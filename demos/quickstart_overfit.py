"""Train the full model to memorize a small synthetic set, end to end.

Generates 8 clips with a planted 3-frame motion window at 5x the noise
floor, trains the default 32x32 stack until training accuracy hits 100%,
then prints which frames the miner kept next to where the signal actually
was. Runs in well under a minute on one CPU core.
"""

import logging

from akmnet.data import SynthSpec, synth_generate
from akmnet.evaluate import evaluate_fold, record_clip
from akmnet.model import build_model
from akmnet.train import TrainConfig, train

logging.getLogger("akmnet.selection").setLevel(logging.ERROR)


def main():
    dataset = synth_generate(SynthSpec(seed=21), n_clips=8, n_subjects=4)
    model = build_model(seed=11)

    accuracy = []

    def report(stats):
        accuracy.append(evaluate_fold(model, dataset.clips, 4).accuracy)
        print(f"epoch {stats.epoch:>3}  objective {stats.mean_objective:7.4f}  "
              f"kept {stats.mean_selected_fraction:.2f} of frames  "
              f"train acc {accuracy[-1]:.2f}")
        return accuracy[-1] == 1.0

    train(model, dataset.clips,
          TrainConfig(epochs=200, batch_size=8, seed=11), on_epoch=report)

    print("\nmined frames vs planted window:")
    for clip in dataset.clips:
        record = record_clip(model, clip)
        start, length = dataset.truth[clip.clip_id]
        window = set(range(start, start + length))
        hits = window.intersection(record.indices)
        print(f"  {clip.clip_id}: signal {sorted(window)}  "
              f"kept {list(record.indices)}  "
              f"overlap {len(hits)}/{length}")


if __name__ == "__main__":
    main()
