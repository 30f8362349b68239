"""Negative controls: every output check passes on good input and fails on bad.

    python3 bench/run.py --self-test

- oracle: records from a model with one weight perturbed, compared against
  the reference built from the unperturbed weights;
- gradient: the directional check with one backward rule scaled by 1.5;
- recall: a selection that keeps only frames outside the planted window.

Exits 0 when every control behaves, 1 otherwise.
"""

import importlib
import sys
from dataclasses import replace

from akmnet.data import SynthSpec, synth_generate
from akmnet.evaluate import record_clip
from akmnet.model import ModelBuilder, ModelConfig
from akmnet.train import TrainConfig, train

import workloads as W

TENSOR = importlib.import_module("akmnet.tensor")


def failures_of(check, *args):
    checks = W.Checks()
    check(checks, *args)
    return checks.failures


def scaled_rule(op_name, factor):
    """Replace ``akmnet.tensor.<op_name>`` by a copy whose backward is scaled."""
    original = getattr(TENSOR, op_name)

    def faulty(*args, **kwargs):
        node = original(*args, **kwargs)
        if node._rule is not None:
            rule = node._rule
            node._rule = lambda g: rule(g * factor)
        return node

    setattr(TENSOR, op_name, faulty)
    return lambda: setattr(TENSOR, op_name, original)


def main():
    W.WarningCounter.install()
    workload = W.WORKLOADS["desk-ablate"]
    dataset = synth_generate(SynthSpec(seed=7), 8, 4)
    clips = dataset.clips
    model = ModelBuilder(ModelConfig(), variant="s123")(7)
    train(model, clips, TrainConfig(epochs=2, batch_size=8, seed=7))
    records = [record_clip(model, c) for c in clips]
    results = []

    def expect(name, failures, should_fail):
        ok = bool(failures) == should_fail
        results.append(ok)
        state = f"fails ({failures[0]})" if failures else "passes"
        print(f"{'ok ' if ok else 'BAD'} {name}: {state}")

    expect("oracle, program as built", failures_of(
        W.check_oracle, "s123", model, records[:4], clips[:4]), False)
    for name in ("backbone.stage2.block1.unit1.conv.w", "gru.layer1.fwd.wh"):
        p = dict(model.parameters())[name]
        saved = p.data.copy()
        p.data.reshape(-1)[0] += 0.1
        bad = [record_clip(model, c) for c in clips[:4]]
        p.data[...] = saved
        expect(f"oracle, {name}[0] raised by 0.1", failures_of(
            W.check_oracle, "s123", model, bad, clips[:4]), True)

    expect("gradient, rules as built", failures_of(
        W.check_gradients, workload, "s123", model, clips, 7), False)
    for op in ("tanh", "conv2d"):
        restore = scaled_rule(op, 1.5)
        try:
            expect(f"gradient, {op} backward scaled by 1.5", failures_of(
                W.check_gradients, workload, "s123", model, clips, 7), True)
        finally:
            restore()

    def recall_failures(select):
        fake = [replace(r, indices=select(r), n_selected=len(select(r))) for r in records]
        ok, recall, baseline = W.recall_beats_baseline(fake, dataset.truth)
        return [] if ok else [f"recall {recall:.2f} vs baseline {baseline:.2f}"]

    def window(r):
        start, length = dataset.truth[r.clip_id]
        return tuple(range(start, start + length))

    def outside(r):
        return tuple(i for i in range(1, r.frame_count + 1) if i not in window(r))

    expect("recall, the planted window kept", recall_failures(window), False)
    expect("recall, only frames outside the window kept", recall_failures(outside), True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
