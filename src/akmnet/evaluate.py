"""Evaluation: per-clip records, confusion and accuracy, leave-one-subject-out
runs, apex agreement metrics and planted-signal recovery."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream
from .tensor import no_grad
from .train import TrainConfig, train

# frame-index difference to milliseconds at 200 frames per second
MS_PER_FRAME_200FPS = 3.33
STOCHASTIC_EVAL_ROUNDS = 5


@dataclass
class ClipRecord:
    """One evaluated clip: prediction plus the full selection readout."""

    clip_id: str
    subject_id: str
    label: int
    prediction: int
    probs: list
    frame_count: int
    n_selected: int
    indices: tuple
    beta: list
    fallback: bool
    apex: int = None
    framerate: float = None

    @property
    def correct(self):
        return self.prediction == self.label

    def to_dict(self):
        d = dict(self.__dict__)
        d["indices"] = list(self.indices)
        return d


@dataclass
class FoldReport:
    subject_id: str
    records: list
    confusion: np.ndarray
    accuracy: float
    n_rounds: int = 1

    def to_dict(self):
        return dict(subject_id=self.subject_id,
                    records=[r.to_dict() for r in self.records],
                    confusion=self.confusion.tolist(),
                    accuracy=self.accuracy,
                    n_rounds=self.n_rounds)


@dataclass
class LosoReport:
    folds: list
    pooled_accuracy: float
    macro_accuracy: float
    confusion: np.ndarray

    @property
    def records(self):
        return [r for fold in self.folds for r in fold.records]

    def to_dict(self):
        return dict(folds=[f.to_dict() for f in self.folds],
                    pooled_accuracy=self.pooled_accuracy,
                    macro_accuracy=self.macro_accuracy,
                    confusion=self.confusion.tolist())


def record_clip(model, clip, rng=None):
    """Infer one clip. Nothing backpropagates a record, so the forward builds
    no graph; its values are the same bits as with one."""
    with no_grad():
        result = model.forward(clip.frames, training=False, rng=rng)
    sel = result.selection
    return ClipRecord(clip_id=clip.clip_id, subject_id=clip.subject_id,
                      label=clip.label, prediction=result.prediction,
                      probs=[float(x) for x in result.probs.data],
                      frame_count=sel.frame_count, n_selected=sel.n_selected,
                      indices=tuple(sel.indices),
                      beta=[float(x) for x in sel.beta.data],
                      fallback=bool(sel.fallback),
                      apex=clip.apex, framerate=clip.framerate)


def confusion_matrix(records, n_classes):
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    for r in records:
        mat[r.label, r.prediction] += 1
    return mat


def accuracy_of(confusion):
    total = int(confusion.sum())
    return float(np.trace(confusion)) / total if total else 0.0


def evaluate_fold(model, clips, n_classes, subject_id="all", rng=None):
    """Evaluate a clip list. A stochastic selection policy is resampled a
    fixed number of rounds and the accuracies averaged; the records kept are
    those of the first round."""
    if rng is None:
        rng = RngStream(0).child("eval")
    rounds = STOCHASTIC_EVAL_ROUNDS if getattr(model.policy, "stochastic",
                                               False) else 1
    first_records = None
    accuracies = []
    for _ in range(rounds):
        records = [record_clip(model, clip, rng=rng) for clip in clips]
        conf = confusion_matrix(records, n_classes)
        accuracies.append(accuracy_of(conf))
        if first_records is None:
            first_records = records
    confusion = confusion_matrix(first_records, n_classes)
    return FoldReport(subject_id=subject_id, records=first_records,
                      confusion=confusion,
                      accuracy=float(np.mean(accuracies)), n_rounds=rounds)


def _group_by_subject(clips):
    groups = {}
    for clip in clips:
        groups.setdefault(clip.subject_id, []).append(clip)
    return groups


def _run_one_fold(payload):
    (subject, build_model, fold_seed, train_clips, held_out, config_dict,
     n_classes, eval_rng) = payload
    model = build_model(fold_seed)
    fold_config = TrainConfig(**{**config_dict, "seed": fold_seed})
    train(model, train_clips, fold_config)
    return evaluate_fold(model, held_out, n_classes, subject_id=subject,
                         rng=eval_rng)


def loso_run(clips, build_model, train_config=None, n_classes=None,
             on_fold=None, workers=1):
    """Leave-one-subject-out protocol over an in-memory clip list.

    ``build_model`` is called once per fold with that fold's seed, so every
    fold trains a fresh model; the master seed comes from the train config.
    Pooled accuracy counts every held-out clip once; the per-fold mean is
    reported alongside. A training split missing some class only warns.

    ``workers`` > 1 trains folds in parallel processes; fold seeds derive
    from the subject id, so the result is identical to the sequential run
    (build_model must then be picklable, e.g. a ModelBuilder).
    """
    if train_config is None:
        train_config = TrainConfig()
    clips = list(clips)
    if n_classes is None:
        n_classes = max(c.label for c in clips) + 1
    groups = _group_by_subject(clips)
    if len(groups) < 2:
        raise ValueError(f"loso_run: need at least 2 subjects, got "
                         f"{len(groups)}")
    root = RngStream(train_config.seed)
    payloads = []
    for subject in groups:
        held_out = groups[subject]
        train_clips = [c for c in clips if c.subject_id != subject]
        present = {c.label for c in train_clips}
        missing = sorted(set(range(n_classes)) - present)
        if missing:
            warnings.warn(f"loso fold {subject}: training split has no clips "
                          f"of class(es) {missing}")
        fold_seed = int(root.child(f"fold-{subject}").integers(0, 2 ** 31))
        payloads.append((subject, build_model, fold_seed, train_clips,
                         held_out, dict(train_config.__dict__), n_classes,
                         root.child(f"eval-{subject}")))

    folds = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for report in pool.map(_run_one_fold, payloads):
                folds.append(report)
                if on_fold is not None:
                    on_fold(report)
    else:
        for payload in payloads:
            report = _run_one_fold(payload)
            folds.append(report)
            if on_fold is not None:
                on_fold(report)

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for fold in folds:
        confusion += fold.confusion
    pooled = accuracy_of(confusion)
    macro = float(np.mean([f.accuracy for f in folds]))
    return LosoReport(folds=folds, pooled_accuracy=pooled,
                      macro_accuracy=macro, confusion=confusion)


# apex agreement -----------------------------------------------------------

def max_key_index(record):
    """The selected frame with the highest score; ties pick the earliest."""
    best, best_score = None, None
    for idx in record.indices:
        score = record.beta[idx - 1]
        if best_score is None or score > best_score:
            best, best_score = idx, score
    return best


@dataclass
class ApexOverlap:
    ratio: float           # fraction of clips whose selection contains the apex
    ratio_high: float      # fraction whose top-scored selected frame IS the apex
    n_evaluated: int
    n_excluded: int        # clips without an apex annotation

    def to_dict(self):
        return dict(self.__dict__)


def apex_overlap(records):
    """How often the annotated apex lands in (and tops) the selection."""
    hits = top_hits = evaluated = excluded = 0
    for r in records:
        if r.apex is None:
            excluded += 1
            continue
        evaluated += 1
        if r.apex in r.indices:
            hits += 1
            if max_key_index(r) == r.apex:
                top_hits += 1
    if evaluated == 0:
        return ApexOverlap(0.0, 0.0, 0, excluded)
    return ApexOverlap(ratio=hits / evaluated, ratio_high=top_hits / evaluated,
                       n_evaluated=evaluated, n_excluded=excluded)


@dataclass
class ApexDistance:
    per_clip: dict         # clip_id -> distance (frames, or ms at 200 fps)
    mean: float
    n_excluded: int

    def to_dict(self):
        return dict(per_clip=dict(self.per_clip), mean=self.mean,
                    n_excluded=self.n_excluded)


def apex_distance(records):
    """Distance from the top-scored selected frame to the annotated apex.

    Frame units, except clips tagged at 200 fps where the count converts to
    milliseconds. Unannotated clips are excluded but counted.
    """
    per_clip = {}
    excluded = 0
    for r in records:
        if r.apex is None:
            excluded += 1
            continue
        d = float(abs(r.apex - max_key_index(r)))
        if r.framerate == 200:
            d = d / MS_PER_FRAME_200FPS
        per_clip[r.clip_id] = d
    mean = float(np.mean(list(per_clip.values()))) if per_clip else 0.0
    return ApexDistance(per_clip=per_clip, mean=mean, n_excluded=excluded)


# planted-signal recovery --------------------------------------------------

@dataclass
class RecoveryReport:
    mean_recall: float
    mean_baseline: float   # expected recall of a uniform same-size selection
    per_clip: dict = field(default_factory=dict)

    def to_dict(self):
        return dict(mean_recall=self.mean_recall,
                    mean_baseline=self.mean_baseline,
                    per_clip=dict(self.per_clip))


def signal_recovery(records, truth):
    """Recall of the planted signal frames by the selection, against the
    chance level of picking the same number of frames uniformly."""
    recalls, baselines, per_clip = [], [], {}
    for r in records:
        if r.clip_id not in truth:
            continue
        start, length = truth[r.clip_id]
        window = set(range(start, start + length))
        hit = len(window.intersection(r.indices))
        recall = hit / length
        baseline = r.n_selected / r.frame_count
        recalls.append(recall)
        baselines.append(baseline)
        per_clip[r.clip_id] = recall
    if not recalls:
        raise ValueError("signal_recovery: no evaluated clip has ground truth")
    return RecoveryReport(mean_recall=float(np.mean(recalls)),
                          mean_baseline=float(np.mean(baselines)),
                          per_clip=per_clip)
