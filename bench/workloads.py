"""The benchmark's workloads: inputs, the timed phases and the output checks.

Every workload runs the same phases in one process:

1. set-up: generate the synthetic set, write it to disk, read it back
   through ``load_manifest`` and ``load_clips``, build the models;
2. one untimed warm-up step per model (forward, backward and an optimizer
   step at learning rate 0, so the weights do not move);
3. training with ``akmnet.train.train``, timed per epoch;
4. inference of every evaluated clip through ``evaluate.record_clip``,
   timed per clip (phases 3 and 4 run for one model, then the next);
5. checks against properties and against the float64 reference model.

With tracing on, phases 3 and 4 run with spans around the public layer
functions, and a fixed sample of training clips then goes through the
layers one public call at a time to time each stage's forward and backward.
"""

import itertools
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import akmnet.tensor as T
from akmnet.backbone import BackboneConfig, desk_backbone, extract_spatial_features, paper_backbone
from akmnet.data import (SynthDataset, SynthSpec, load_clips, load_manifest, save_synth_dataset,
                         synth_generate)
from akmnet.evaluate import STOCHASTIC_EVAL_ROUNDS, record_clip, signal_recovery
from akmnet.gradcheck import SelectionMarginTracker
from akmnet.model import ModelBuilder, ModelConfig
from akmnet.recurrent import classify, pixelwise_encode, total_loss
from akmnet.rng import RngStream
from akmnet.selection import RoutingAudit
from akmnet.train import TrainConfig, sgd_momentum_step, train
from akmnet.weights import load_weights, save_weights

import reference as ref
from tracing import Tracer

# Agreement with the float64 reference. The program computes in float32;
# after training, its probabilities and selection scores were seen to agree
# with the reference to 1e-6 and 7e-6, so both tolerances leave a margin of
# more than ten. Where the reference's score margin to its threshold is no
# more than twice the largest score difference seen on the clip, float32 may
# legitimately decide differently: the clip is counted, not compared.
PROB_TOL = 1e-4
SCORE_TOL = 1e-4
ZERO_ROW_TOL = 1e-4       # relative to the clip's largest pooled-row norm
PROB_SUM_TOL = 1e-5
GRAD_TOL = 1e-4           # directional central difference, float64
GRAD_CLIPS = 4            # clips tried until one is clear of the threshold
SPLIT_GRAD_RTOL = 1e-4    # stage-split against unsplit backward, float32
NODE_OPS = ("mul", "matmul", "cat", "sigmoid", "add", "sub", "tanh",
            "conv2d", "frame_norm", "gather")
NO_GATHER = ("s12",)      # the one policy whose select has no key-frame gather


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict                  # SynthSpec fields other than the seed
    n_clips: int                 # clips generated, unless per_length is set
    n_subjects: int
    frame_format: str            # how the set is written before being read back
    backbone: BackboneConfig
    gru_hidden: int
    policies: tuple
    train: dict                  # TrainConfig fields other than seed and epochs
    epochs_per_10s: float        # training size per 10 s of --seconds
    min_epochs: int
    loso_fold: tuple = None      # (data seed, train seed, held-out subject) of a fixed fold
    per_length: int = None       # this many clips of every length t_min..t_max
    train_per_length: int = None # train on this many of each length (None: all)
    oracle_clips: int = 4        # evaluated clips checked per model
    grad_frames: int = None      # frames of the gradient-check clip (None: all)
    sample_clips: int = 1        # traced stage-split clips per model
    roundtrip_clips: int = 0     # clips re-evaluated after a weights round trip
    probe_clips: int = 1         # clips inferred after every epoch, for the latency
    eval_rounds_per_10s: float = 0.0  # timed rounds of the final inference per 10 s of --seconds


WORKLOADS = {w.name: w for w in (
    Workload("recovery-fold",
             synth=dict(t_min=12, t_max=24, side=16), n_clips=60, n_subjects=6,
             frame_format="packed",
             backbone=BackboneConfig(input_side=16, input_channels=1,
                                     stage_widths=(4, 8, 16), blocks_per_stage=1,
                                     output_grid=(2, 2)),
             gru_hidden=8, policies=("s123",),
             train=dict(cycles=2, batch_size=4, init_lr=2e-3),
             epochs_per_10s=12.0, min_epochs=24, loso_fold=(33, 5, "subj00"),
             oracle_clips=12, sample_clips=6, probe_clips=8),
    Workload("paper-steps",
             synth=dict(t_min=8, t_max=12, side=128), n_clips=None, n_subjects=4,
             per_length=4, train_per_length=2,
             frame_format="packed", backbone=paper_backbone(), gru_hidden=32,
             policies=("s123",), train=dict(batch_size=4),
             epochs_per_10s=1.0, min_epochs=1,
             oracle_clips=2, grad_frames=4, sample_clips=1, probe_clips=5),
    Workload("desk-ablate",
             synth=dict(), n_clips=None, n_subjects=4, per_length=4, frame_format="pgm",
             backbone=desk_backbone(), gru_hidden=32,
             policies=("s123", "s12", "s13", "s23", "va-all", "va-norm32",
                       "va-random10", "va-last10"),
             train=dict(batch_size=8), epochs_per_10s=2.0, min_epochs=1,
             oracle_clips=3, sample_clips=1, roundtrip_clips=6, probe_clips=2,
             eval_rounds_per_10s=2.0),
)}


class WarningCounter(logging.Handler):
    """Counts ``akmnet.selection`` records and keeps them off stderr."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1

    @classmethod
    def install(cls):
        handler = cls()
        logger = logging.getLogger("akmnet.selection")
        logger.addHandler(handler)
        logger.propagate = False
        return handler


class Checks:
    def __init__(self):
        self.failures = []
        self.near_threshold = 0

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
        return bool(ok)


def generate(workload, seed):
    """The workload's synthetic set. With ``per_length``, the first clips of
    every length from one larger generated pool, so that every seed gets the
    same mix of lengths and only the clips' content varies with the seed.
    The pool holds four times the clips needed: at twice, 4 of 10 seeds
    lacked a length and generated a second, larger pool, which made the
    set-up time depend on the seed; at four times no seed from 0 to 1999
    lacks one on either workload."""
    spec = SynthSpec(seed=seed, **workload.synth)
    if workload.per_length is None:
        return synth_generate(spec, workload.n_clips, workload.n_subjects)
    lengths = range(spec.t_min, spec.t_max + 1)
    n_pool = 4 * workload.per_length * len(lengths)
    while True:
        pool = synth_generate(spec, n_pool, workload.n_subjects)
        picked = Counter()
        clips = []
        for clip in pool.clips:
            if picked[clip.frame_count] < workload.per_length:
                picked[clip.frame_count] += 1
                clips.append(clip)
        if len(clips) == workload.per_length * len(lengths):
            return SynthDataset(spec, clips, {c.clip_id: pool.truth[c.clip_id] for c in clips},
                                pool.label_map)
        n_pool *= 2


def training_split(workload, clips, held_out):
    if held_out:
        return [c for c in clips if c.subject_id != held_out]
    if workload.train_per_length is None:
        return clips
    seen = Counter()
    out = []
    for clip in clips:
        seen[clip.frame_count] += 1
        if seen[clip.frame_count] <= workload.train_per_length:
            out.append(clip)
    return out


def epochs_for(workload, seconds):
    """Training size from --seconds: a fixed rate, so the work (and the
    outcome the checks see) depends on the arguments, never on machine speed."""
    per_cycle = workload.epochs_per_10s * seconds / 10.0
    return max(workload.min_epochs, int(round(per_cycle)))


def eval_rounds_for(workload, seconds):
    """Timed rounds of the final inference, at a fixed rate like the epochs."""
    return max(1, int(round(workload.eval_rounds_per_10s * seconds / 10.0)))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
                nproc=len(os.sched_getaffinity(0)), python=sys.version.split()[0])


def walk(*roots):
    """Node count per op over everything reachable through ``.parents``."""
    seen, ops, stack = set(), Counter(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op != "leaf":
            ops[node.op] += 1
        stack.extend(node.parents)
    return ops


def zero_grads(model):
    for _, p in model.parameters():
        p.zero_grad()


# -- output checks ------------------------------------------------------------------

def check_records(checks, policy, records, clips):
    """Properties every record must have under its policy's definition."""
    for rec, clip in zip(records, clips):
        where = f"{policy} {rec.clip_id}"
        checks.require(abs(math.fsum(rec.probs) - 1.0) <= PROB_SUM_TOL,
                       f"{where}: probabilities sum to {math.fsum(rec.probs)!r}")
        idx = list(rec.indices)
        if not checks.require(idx and all(b > a for a, b in zip(idx, idx[1:]))
                              and 1 <= idx[0] and idx[-1] <= rec.frame_count,
                              f"{where}: kept indices {idx} not increasing in range"):
            continue
        t = clip.frame_count
        if policy in ref.GATED:
            scores = np.asarray(rec.beta)
            above = [i + 1 for i in np.flatnonzero(scores > math.fsum(rec.beta) / len(scores))]
            if rec.fallback:
                expect = [int(np.argmax(scores)) + 1] if not above else None
            else:
                expect = above
            checks.require(idx == expect, f"{where}: kept {idx}, above the mean {above}")
        elif policy == "va-random10":
            checks.require(len(idx) == min(10, t), f"{where}: kept {len(idx)} of {t}")
        else:
            expect = {"va-norm32": list(range(1, 33)),
                      "va-last10": list(range(max(0, t - 10) + 1, t + 1))}.get(
                          policy, list(range(1, t + 1)))
            checks.require(idx == expect, f"{where}: kept {idx}, defined {expect}")


def ill_conditioned(policy, out, rec):
    """True when a cosine score rests on a pooled row too close to zero for
    float32 and float64 to agree on its direction."""
    if policy not in ("s123", "s12", "s23"):
        return False
    norms = np.sqrt((out["pooled"] ** 2).sum(axis=1))
    if norms.max() == 0.0:
        return True
    small = norms < ZERO_ROW_TOL * norms.max()
    consistent_zero = (norms == 0.0) & (np.asarray(rec.beta) == 0.0)
    return bool((small & ~consistent_zero).any())


def check_oracle(checks, policy, model, records, clips):
    """Probabilities and kept frames against the float64 reference model."""
    params = ref.params_of(model)
    cfg = model.config.backbone
    worst = 0.0
    for rec, clip in zip(records, clips):
        out = ref.forward(params, cfg, model.config.gru_layers, policy, clip.frames,
                          kept_given=rec.indices)
        if ill_conditioned(policy, out, rec):
            checks.near_threshold += 1
            continue
        score_diff = 0.0
        if out["scores"] is not None:
            score_diff = float(np.abs(np.asarray(rec.beta) - out["scores"]).max())
            checks.require(score_diff <= SCORE_TOL,
                           f"{policy} {rec.clip_id}: scores differ from the reference "
                           f"by {score_diff:.3g}")
        if out["margin"] <= 2.0 * score_diff:
            checks.near_threshold += 1
            continue
        diff = float(np.abs(np.asarray(rec.probs) - out["probs"]).max())
        worst = max(worst, diff)
        checks.require(tuple(rec.indices) == out["indices"],
                       f"{policy} {rec.clip_id}: kept {rec.indices}, reference {out['indices']}")
        checks.require(diff <= PROB_TOL,
                       f"{policy} {rec.clip_id}: probabilities differ from the reference by {diff:.3g}")
    return worst


def check_gradients(checks, workload, policy, model, clips, seed):
    """Directional central differences at the trained weights in float64, on
    the first clip whose selection is not within 10 steps of its threshold.
    Returns the worst relative error and the backward passes it made."""
    m64 = ModelBuilder(model.config, variant=policy, precision="f64")(0)
    for (_, p64), (_, p) in zip(m64.parameters(), model.parameters()):
        p64.data[...] = p.data
    for tries, clip in enumerate(clips[:GRAD_CLIPS], 1):
        frames = clip.frames[:workload.grad_frames] if workload.grad_frames else clip.frames

        def objective():
            return m64.forward(frames, label=clip.label, training=False,
                               rng=RngStream(seed).child("grad"), gate_grad="local").omega

        res = ref.directional_grad_check(objective, m64.parameters(), seed,
                                         SelectionMarginTracker, GRAD_TOL)
        if res["checked"]:
            break
    checks.require(res["checked"] >= 1 and res["worst"] < GRAD_TOL,
                   f"{policy}: directional gradient check worst {res['worst']:.3g} "
                   f"({res['checked']} checked, {res['skipped']} skipped, "
                   f"{res['kinked']} of them across a kink, "
                   f"{res['unresolved']} unresolved, {tries} clips tried)")
    return res["worst"], tries


def recall_beats_baseline(records, truth):
    rec = signal_recovery(records, truth)
    return rec.mean_recall > rec.mean_baseline, rec.mean_recall, rec.mean_baseline


def check_fed_frames(checks, policy, model, clips):
    """va-all, va-last10 and va-norm32 feed the frames their definitions say."""
    for clip in clips:
        prepared, _ = model.policy.prepare(clip.frames)
        expect, _ = ref.fed_frames(policy, clip.frames.astype(np.float64))
        prepared = prepared.astype(np.float64)
        if policy == "va-norm32":
            ok = prepared.shape == expect.shape and np.abs(prepared - expect).max() <= 1e-6
        else:
            ok = np.array_equal(prepared, expect)
        checks.require(ok, f"{policy} {clip.clip_id}: fed frames differ from the definition")


def check_roundtrip(checks, policy, model, records, clips, path, seed):
    """Saved and reloaded weights are bit-exact and reproduce the predictions."""
    save_weights(path, model.parameters())
    fresh = ModelBuilder(model.config, variant=policy)(seed + 1)
    load_weights(path, fresh.parameters())
    checks.require(all(np.array_equal(a.data, b.data) for (_, a), (_, b)
                       in zip(model.parameters(), fresh.parameters())),
                   f"{policy}: reloaded weights differ")
    rng = RngStream(seed).child(f"eval-{policy}")
    for rec, clip in zip(records, clips):
        again = record_clip(fresh, clip, rng=rng)
        checks.require(again.prediction == rec.prediction and again.probs == rec.probs,
                       f"{policy} {clip.clip_id}: reloaded model predicts differently")


# -- traced stage-split sample ------------------------------------------------------

def _leaf(t):
    return T.Tensor(t.data, requires_grad=True, dtype=t.data.dtype)


def _inject(out, grad):
    """Scalar whose gradient at ``out`` is exactly ``grad``."""
    return T.sum_(T.mul(out, T.constant(grad, dtype=grad.dtype)))


def split_pass(tracer, model, clip, rng):
    """One training pass, one public call per stage, cut at each boundary by
    a detached leaf; each stage's backward is fed the gradient collected at
    its output leaf. Spans are named ``split.<stage>``, apart from those the
    wrappers record. Returns the node count per stage and the frames fed."""
    def sp(name):
        return tracer.span("split." + name)

    with sp("policy.prepare"):
        prepared, meta = model.policy.prepare(np.asarray(clip.frames), rng=rng)
    with sp("backbone.fwd"):
        feats = extract_spatial_features(prepared.astype(model.dtype, copy=False),
                                         model.backbone).features
    feats_in = _leaf(feats)
    with sp("selection.fwd"):
        key, _, losses = model.policy.select(feats_in, model.akm, original_indices=meta,
                                             gate_grad="surrogate", rng=rng)
    key_in = _leaf(key.features)
    loss_in = _leaf(losses.combined) if losses.combined.requires_grad else losses.combined
    with sp("recurrent.gru_fwd"):
        temporal = pixelwise_encode(key_in, model.gru).values
    temporal_in = _leaf(temporal)
    with sp("recurrent.head_fwd"):
        objective = total_loss(classify(temporal_in, model.head, training=True, rng=rng),
                               clip.label, loss_in)
    nodes = dict(backbone=walk(feats), selection=walk(key.features, losses.combined),
                 gru=walk(temporal), head=walk(objective))
    with sp("recurrent.head_bwd"):
        T.backward(objective)
    with sp("recurrent.gru_bwd"):
        T.backward(_inject(temporal, temporal_in.grad))
    with sp("selection.bwd"):
        upstream = _inject(key.features, key_in.grad)
        if loss_in.requires_grad:
            upstream = T.add(upstream, _inject(losses.combined, loss_in.grad))
        T.backward(upstream)
    with sp("backbone.bwd"):
        T.backward(_inject(feats, feats_in.grad))
    return nodes, prepared.shape[0]


def traced_sample(checks, tracer, workload, models, clips, seed, passes):
    """Stage-split timings, node counts and tracing overhead on a fixed sample."""
    stats = {k: [] for k in ("plain", "traced", "backward", "train_nodes",
                             "eval_nodes", "gflop")}
    ops = Counter()
    i = 0
    for policy, model in models.items():
        for clip in clips[:workload.sample_clips]:
            def fresh():
                return RngStream(seed).child(f"sample-{i}")

            def full_pass(patched):
                zero_grads(model)
                with tracer.patched([model]) if patched else nullcontext():
                    t0 = time.perf_counter()
                    res = model.forward(clip.frames, label=clip.label, training=True,
                                        rng=fresh(), gate_grad="surrogate")
                    t1 = time.perf_counter()
                    T.backward(res.omega)
                    t2 = time.perf_counter()
                return res, t2 - t0, t2 - t1

            for patched in ((False, True) if i % 2 == 0 else (True, False)):
                res, total, bwd = full_pass(patched)
                stats["traced" if patched else "plain"].append(total)
                if not patched:
                    stats["backward"].append(bwd)
                    plain_grads = [p.grad_or_zeros().copy() for _, p in model.parameters()]
                    full_ops = walk(res.omega)
            zero_grads(model)
            stage_nodes, n_fed = split_pass(tracer, model, clip, fresh())
            passes[policy] += 3
            split_total = sum(sum(c.values()) for c in stage_nodes.values())
            checks.require(split_total == sum(full_ops.values()),
                           f"{policy}: stage walks count {split_total} nodes, "
                           f"objective walk {sum(full_ops.values())}")
            for (name, p), g in zip(model.parameters(), plain_grads):
                split = p.grad_or_zeros()
                scale = float(np.abs(g).max())
                checks.require(float(np.abs(split - g).max()) <= SPLIT_GRAD_RTOL * scale,
                               f"{policy}: stage-split gradient of {name} differs")
            zero_grads(model)
            stats["train_nodes"].append(sum(full_ops.values()))
            ops.update(full_ops)
            probs = model.forward(clip.frames, training=False, rng=fresh()).probs
            stats["eval_nodes"].append(sum(walk(probs).values()))
            stats["gflop"].append(2e-9 * ref.conv_macs(model.config.backbone, n_fed))
            i += 1
    n = i
    ms = {name: 1e3 * statistics.median(tracer.durations("split." + name))
          for name in ("backbone.fwd", "backbone.bwd", "selection.fwd", "selection.bwd",
                       "recurrent.gru_fwd", "recurrent.gru_bwd")}
    head = [a + b for a, b in zip(tracer.durations("split.recurrent.head_fwd"),
                                  tracer.durations("split.recurrent.head_bwd"))]
    fwd_s = sum(tracer.durations("split.backbone.fwd"))
    metrics = {
        "backbone.fwd_ms_per_clip": (ms["backbone.fwd"], "ms"),
        "backbone.bwd_ms_per_clip": (ms["backbone.bwd"], "ms"),
        "backbone.gflop_per_clip": (statistics.fmean(stats["gflop"]), "GFLOP"),
        "backbone.fwd_gflops": (sum(stats["gflop"]) / fwd_s, "GFLOP/s"),
        "selection.fwd_ms_per_clip": (ms["selection.fwd"], "ms"),
        "selection.bwd_ms_per_clip": (ms["selection.bwd"], "ms"),
        "recurrent.gru_fwd_ms_per_clip": (ms["recurrent.gru_fwd"], "ms"),
        "recurrent.gru_bwd_ms_per_clip": (ms["recurrent.gru_bwd"], "ms"),
        "recurrent.head_ms_per_clip": (1e3 * statistics.median(head), "ms"),
        "tensor.backward_ms_per_clip": (1e3 * statistics.median(stats["backward"]), "ms"),
        "tensor.train_nodes_per_clip": (statistics.fmean(stats["train_nodes"]), "count"),
        "tensor.eval_nodes_per_clip": (statistics.fmean(stats["eval_nodes"]), "count"),
        "trace.overhead_pct": (100.0 * (sum(stats["traced"]) / sum(stats["plain"]) - 1.0), "%"),
    }
    for op in NODE_OPS:
        metrics[f"tensor.nodes.{op}"] = (ops[op] / n, "count")
    return metrics


# -- the run -------------------------------------------------------------------------

def run(name, seed, seconds, trace, t_start, out_root):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    workload = WORKLOADS[name]
    run_dir = out_root / f"{name}-seed{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, t_start, run_dir, out_root)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, t_start, run_dir, out_root):
    warning_counter = WarningCounter.install()
    warnings.filterwarnings("ignore", message="va-random: requested")
    tracer = Tracer() if trace else None
    span = tracer.span if trace else (lambda name: nullcontext())
    checks = Checks()

    # 1. set-up
    # A fixed fold ignores --seed: its set, held-out subject and the model and
    # training seed loso_run derives for that subject are pinned, because the
    # trained selection, and with it the work per clip, differs by fold and
    # by data seed. The others generate their set from --seed.
    held_out = None
    data_seed, fold_seed = seed, int(RngStream(seed).child("fold-all").integers(0, 2 ** 31))
    if workload.loso_fold:
        data_seed, train_seed, held_out = workload.loso_fold
        fold_seed = int(RngStream(train_seed).child(f"fold-{held_out}").integers(0, 2 ** 31))
    with span("data.synth"):
        dataset = generate(workload, data_seed)
    save_synth_dataset(dataset, run_dir / "data", frame_format=workload.frame_format)
    with span("data.load"):
        manifest = load_manifest(run_dir / "data" / "manifest.csv",
                                 label_map=dataset.label_map)
        clips = load_clips(manifest)
    for made, read in zip(dataset.clips, clips):
        expect = made.frames if workload.frame_format == "packed" else np.clip(made.frames, 0, 1)
        checks.require((made.clip_id, made.subject_id, made.label)
                       == (read.clip_id, read.subject_id, read.label)
                       and read.frames.shape == expect.shape
                       and np.abs(read.frames - expect).max() <= 0.5 / 255 + 1e-6,
                       f"{made.clip_id}: frames read back differ from those written")
    config = ModelConfig(backbone=workload.backbone, gru_hidden=workload.gru_hidden)
    models = {p: ModelBuilder(config, variant=p)(fold_seed) for p in workload.policies}
    setup_s = time.perf_counter() - t_start

    train_clips = training_split(workload, clips, held_out)
    # the held-out subject first: its records feed the recall check
    eval_clips = sorted(clips, key=lambda c: c.subject_id != held_out)
    n_held = sum(c.subject_id == held_out for c in clips)
    passes = Counter()          # backward passes per policy, for the routing audit
    audit_before = RoutingAudit.snapshot()

    # 2. warm-up: forward, backward and a step at lr 0 leave the weights as built
    attempted = 0
    for policy, model in models.items():
        clip = train_clips[0]
        res = model.forward(clip.frames, label=clip.label, training=True,
                            rng=RngStream(seed).child("warm-up"))
        res.omega.backward()
        params = model.parameters()
        sgd_momentum_step(params, [p.grad_or_zeros() for _, p in params], {}, 0.0)
        zero_grads(model)
        passes[policy] += 1
        attempted += 1

    # 3 and 4, one policy after the other: training, then inference.
    # Training is timed per epoch through train's own on_epoch hook; a model's
    # training time is the sum of its epochs. After each epoch, outside its
    # timing, a few clips go through record_clip; inference leaves the
    # weights, the gradients and every training stream untouched. Then every
    # evaluated clip is inferred in evaluate_fold's order (round by round, one
    # rng stream), whose first round gives the records; further timed rounds,
    # where the workload asks for them, must repeat the first round's outcome
    # for a deterministic policy. A shared machine's speed changes by up to
    # 1.75x for seconds to minutes at a time, so both figures take their
    # samples from as much of the run as they can: the per-epoch inferences
    # spread the latency over the training, and the policies' turns spread
    # both figures over the whole run. Both are means (the latency's per
    # policy, averaged over the policies): a mean moves in proportion to the
    # share of the run spent in a slow stretch, where a median of samples
    # from a fast and a slow stretch jumps from one to the other.
    epochs = epochs_for(workload, seconds)
    histories, train_s, train_passes = {}, 0.0, 0
    latencies = {p: [] for p in models}
    records = {p: [] for p in models}
    samples = dict(epoch_s={}, latency_s=latencies)   # raw timings, written out at the end
    probes = itertools.cycle(eval_clips)
    train_counts = Counter()    # the tracer's selection counts during training
    with tracer.patched(models.values()) if trace else nullcontext():
        for policy, model in models.items():
            cfg = TrainConfig(epochs=epochs, seed=fold_seed, **workload.train)
            probe_rng = RngStream(seed).child(f"probe-{policy}")
            epoch_s, started = [], time.perf_counter()

            def after_epoch(_):
                nonlocal started
                epoch_s.append(time.perf_counter() - started)
                for clip in itertools.islice(probes, workload.probe_clips):
                    t0 = time.perf_counter()
                    record_clip(model, clip, rng=probe_rng)
                    latencies[policy].append(time.perf_counter() - t0)
                started = time.perf_counter()

            counts_before = Counter(tracer.counts) if trace else Counter()
            histories[policy] = train(model, train_clips, cfg, on_epoch=after_epoch)
            if trace:
                train_counts.update(tracer.counts - counts_before)
            samples["epoch_s"][policy] = epoch_s
            train_s += math.fsum(epoch_s)
            n = len(epoch_s) * len(train_clips)
            passes[policy] += n
            train_passes += n

            rng = RngStream(seed).child(f"eval-{policy}")
            rounds = max(eval_rounds_for(workload, seconds),
                         STOCHASTIC_EVAL_ROUNDS if model.policy.stochastic else 1)
            for r in range(rounds):
                for i, clip in enumerate(eval_clips):
                    t0 = time.perf_counter()
                    with span("evaluate.record_clip"):
                        rec = record_clip(model, clip, rng=rng)
                    latencies[policy].append(time.perf_counter() - t0)
                    if r == 0:
                        records[policy].append(rec)
                    elif not model.policy.stochastic:
                        first = records[policy][i]
                        checks.require((rec.prediction, rec.indices)
                                       == (first.prediction, first.indices),
                                       f"{policy} {clip.clip_id}: round {r} predicts or "
                                       f"selects differently from round 0")
    attempted += train_passes
    n_inferences = sum(len(v) for v in latencies.values())
    attempted += n_inferences
    eval_ms = 1e3 * statistics.fmean(statistics.fmean(v) for v in latencies.values())
    # the program's own peak; the float64 checks below would raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # 5. checks
    worst = dict(oracle=0.0, gradient=0.0)
    for policy, model in models.items():
        check_records(checks, policy, records[policy], eval_clips)
        worst["oracle"] = max(worst["oracle"], check_oracle(
            checks, policy, model, records[policy][:workload.oracle_clips],
            eval_clips[:workload.oracle_clips]))
        grad_worst, grad_passes = check_gradients(checks, workload, policy, model,
                                                  train_clips, seed)
        worst["gradient"] = max(worst["gradient"], grad_worst)
        passes[policy] += grad_passes
        if policy in ("va-all", "va-last10", "va-norm32"):
            check_fed_frames(checks, policy, model, eval_clips)
        if workload.roundtrip_clips:
            check_roundtrip(checks, policy, model, records[policy][:workload.roundtrip_clips],
                            eval_clips[:workload.roundtrip_clips],
                            run_dir / f"{policy}.akmw", seed)
    if held_out:
        ok, recall, baseline = recall_beats_baseline(records["s123"][:n_held], dataset.truth)
        checks.require(ok, f"held-out recall {recall:.3f} does not beat the "
                           f"uniform baseline {baseline:.3f}")
        print(f"{held_out}: held-out recall {recall:.3f}, uniform baseline {baseline:.3f}",
              file=sys.stderr)
        hist = histories["s123"]
        checks.require(hist.epochs[-1].mean_objective < hist.epochs[0].mean_objective,
                       f"final-epoch objective {hist.epochs[-1].mean_objective:.4f} is not "
                       f"below the first {hist.epochs[0].mean_objective:.4f}")

    metrics = {}
    if trace:
        metrics.update(traced_sample(checks, tracer, workload, models, train_clips, seed,
                                     passes))
        sgd = tracer.durations("train.sgd_step")
        metrics.update({
            "train.sgd_step_ms": (1e3 * statistics.median(sgd), "ms"),
            "evaluate.record_ms_per_clip":
                (1e3 * statistics.median(tracer.durations("evaluate.record_clip")), "ms"),
            "data.synth_ms": (1e3 * tracer.durations("data.synth")[0], "ms"),
            "data.load_ms": (1e3 * tracer.durations("data.load")[0], "ms"),
            "selection.kept_fraction":
                (train_counts["frames_kept"] / train_counts["frames_in"], "ratio"),
            "selection.fallback_clips": (train_counts["fallback_clips"], "count"),
            "trace.train_clips_per_s": (train_passes / train_s, "clips/s"),
        })
    # counted after the sample, whose passes also go through the gather
    passes_after, violations_after = RoutingAudit.snapshot()
    expected = sum(n for policy, n in passes.items() if policy not in NO_GATHER)
    checks.require(passes_after - audit_before[0] == expected
                   and violations_after == audit_before[1],
                   f"routing audit: {passes_after - audit_before[0]} passes for "
                   f"{expected} backward passes, "
                   f"{violations_after - audit_before[1]} violations")
    if trace:
        metrics["selection.zero_norm_warnings"] = (warning_counter.count, "count")
        metrics["check.near_threshold_clips"] = (checks.near_threshold, "count")
        tracer.write(out_root / f"trace-{workload.name}-seed{seed}.json",
                     dict(workload=workload.name, seed=seed, seconds=seconds,
                          epochs=epochs, environment=environment()))
    else:
        with open(out_root / f"samples-{workload.name}-seed{seed}.json", "w") as fh:
            json.dump(samples, fh)
        metrics = {
            "setup_s": (setup_s, "s"),
            "train_clips_per_s": (train_passes / train_s, "clips/s"),
            "eval_ms_per_clip": (eval_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print("mean ms per inference: " + ", ".join(
        f"{p} {1e3 * statistics.fmean(v):.2f}" for p, v in latencies.items()), file=sys.stderr)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    all_records = [r for rs in records.values() for r in rs]
    kept = sum(r.n_selected for r in all_records) / sum(r.frame_count for r in all_records)
    print(f"{workload.name} seed {seed}: {epochs} epochs per cycle, "
          f"{train_passes} training passes, {n_inferences} inferences, "
          f"{checks.near_threshold} near-threshold clips, "
          f"worst oracle diff {worst['oracle']:.2g}, worst gradient error {worst['gradient']:.2g}, "
          f"{len(checks.failures)} failed checks, "
          f"{warning_counter.count} zero-norm warnings, kept fraction at evaluation {kept:.3f}",
          file=sys.stderr)
    return not checks.failures, attempted, 0, metrics
