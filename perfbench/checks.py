"""Correctness checks the benchmark applies to every run.

Each check takes plain values (numpy arrays, floats, label lists) computed
by the program and returns a list of failure messages; an empty list means
the check passed. The reference values are recomputed here with numpy and
scipy, apart from the program's own code, or follow from a property the
method must have. ``test_checks.py`` feeds each check a corrupted value to
show that it can fail.
"""

from __future__ import annotations

import math

import numpy as np

GRAD_TOL = 1e-3          # relative error against central differences
GRAD_FLOOR = 1e-6        # denominator floor for near-zero gradient coordinates
ROW_TOL = 1e-12          # probability rows sum to 1
LOSS_RTOL = 1e-9         # recorded vs recomputed validation loss
METRIC_TOL = 1e-12       # compute_report vs the numpy recomputation
LOG_FLOOR = 1e-12        # the clamp the loss applies inside its log

SUBSETS = {
    "binary_acc": ("positive", "negative"),
    "three_way_acc": ("positive", "neutral", "negative"),
    "four_way_acc": ("positive", "neutral", "negative", "conflict"),
}


def gradient_errors(analytic, numeric) -> np.ndarray:
    """Relative error per coordinate, with a floor on the denominator."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), GRAD_FLOOR)


def check_gradients(analytic, numeric, labels=None) -> list[str]:
    """Tape gradients agree with central differences below ``GRAD_TOL``."""
    err = gradient_errors(analytic, numeric)
    if err.size == 0:
        return ["gradient check sampled no coordinates"]
    bad = np.flatnonzero(~(err < GRAD_TOL))
    return [f"gradient {labels[i] if labels else i}: analytic {analytic[i]:.6e} "
            f"vs central difference {numeric[i]:.6e} (rel err {err[i]:.2e})"
            for i in bad[:5]]


def check_prob_rows(probs) -> list[str]:
    """Every probability is in [0, 1] and every row sums to 1."""
    p = np.asarray(probs, dtype=np.float64)
    out = []
    if not np.isfinite(p).all():
        out.append("probabilities contain NaN or Inf")
    if (p < 0.0).any() or (p > 1.0).any():
        out.append(f"probabilities outside [0, 1]: min {p.min():.3e}, max {p.max():.3e}")
    dev = np.abs(p.sum(axis=-1) - 1.0)
    if dev.size and not dev.max() <= ROW_TOL:
        out.append(f"a probability row sums to 1 {dev.max():+.3e} off")
    return out


def masked_cross_entropy(probs, gold) -> float:
    """Mean over samples of the summed cross-entropy over labeled pairs.

    ``gold`` is an int array [N, n_cat] of polarity indices, -1 where the
    pair is unlabeled. The log argument is clamped like the program's loss.
    """
    p = np.asarray(probs, dtype=np.float64)
    gold = np.asarray(gold)
    labeled = gold >= 0
    picked = np.take_along_axis(p, np.where(labeled, gold, 0)[..., None], axis=-1)[..., 0]
    nll = -np.log(np.maximum(picked, LOG_FLOOR)) * labeled
    return float(nll.sum() / p.shape[0])


def check_valid_loss(recorded: float, recomputed: float, logged,
                     what: str = "training") -> list[str]:
    """The recorded best validation loss is the lowest of the validation
    losses the training call logged after its epochs, and matches the
    recomputation from ``predict``."""
    out = []
    if not logged or recorded != min(logged):
        out.append(f"{what}: recorded best_valid_loss {recorded!r} is not the lowest "
                   f"logged validation loss {min(logged, default=None)!r}")
    if not math.isclose(recorded, recomputed, rel_tol=LOSS_RTOL, abs_tol=0.0):
        out.append(f"{what}: recorded best_valid_loss {recorded!r} != recomputed "
                   f"masked cross-entropy {recomputed!r}")
    return out


def check_below_fresh(trained: float, fresh: float, what: str = "training") -> list[str]:
    """Training from a fresh model lowers its validation loss."""
    if trained < fresh:
        return []
    return [f"{what}: validation loss {trained:.6f} is not below the fresh "
            f"model's {fresh:.6f}"]


def reference_report(probs, gold, polarities, columns) -> dict:
    """Vectorised recomputation of the report numbers for one category group.

    ``probs`` [N, n_cat, s], ``gold`` int [N, n_cat] (-1 unlabeled),
    ``polarities`` the ordered labels with "none" last, ``columns`` the
    category indices of the group.
    """
    from scipy.stats import mannwhitneyu

    p = np.asarray(probs, dtype=np.float64)[:, columns, :]
    g = np.asarray(gold)[:, columns]
    none = len(polarities) - 1
    labeled = g >= 0
    score = 1.0 - p[..., none]
    pred = (score > 0.5) & labeled
    present = (g != none) & labeled
    tp = (pred & present).sum(axis=0)
    fp = (pred & ~present & labeled).sum(axis=0)
    fn = (present & ~pred).sum(axis=0)
    TP, FP, FN = int(tp.sum()), int(fp.sum()), int(fn.sum())
    precision = TP / (TP + FP) if TP + FP else 0.0
    recall = TP / (TP + FN) if TP + FN else 0.0
    micro = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    denom = 2 * tp + fp + fn
    per_cat = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 1.0)
    ref = {"extraction": {"precision": precision, "recall": recall,
                          "micro_f1": micro, "macro_f1": float(np.mean(per_cat))},
           "sentiment": {}}

    pos, neg = score[present], score[labeled & ~present]
    if pos.size and neg.size:
        u = mannwhitneyu(pos, neg, alternative="two-sided", method="asymptotic").statistic
        ref["extraction"]["auc"] = float(u) / (pos.size * neg.size)
    else:
        ref["extraction"]["auc"] = None

    for name, classes in SUBSETS.items():
        if any(c not in polarities for c in classes):
            ref["sentiment"][name] = None
            continue
        idx = np.array([polarities.index(c) for c in classes])
        in_subset = labeled & np.isin(g, idx)
        if not in_subset.any():
            ref["sentiment"][name] = None
            continue
        choice = idx[np.argmax(p[..., idx], axis=-1)]
        ref["sentiment"][name] = float((choice == g)[in_subset].mean())
    return ref


def check_report(report: dict, reference: dict, group: str) -> list[str]:
    """Every number in ``reference`` equals the program's report."""
    out = []
    for section, values in reference.items():
        for name, want in values.items():
            got = report[section][name]
            if want is None or got is None:
                ok = want is None and got is None
            else:
                ok = abs(got - want) <= METRIC_TOL
            if not ok:
                out.append(f"report[{group}] {section}.{name} = {got!r}, "
                           f"recomputed {want!r}")
    return out


def check_close(batched, single) -> list[str]:
    """Batched predictions equal one-sample predictions within ``ROW_TOL``."""
    a, b = np.asarray(batched), np.asarray(single)
    if a.shape != b.shape:
        return [f"batched shape {a.shape} != one-sample shape {b.shape}"]
    dev = float(np.abs(a - b).max()) if a.size else 0.0
    return [] if dev <= ROW_TOL else [f"batched and one-sample predictions differ by {dev:.3e}"]


def check_identical(before, after, what: str) -> list[str]:
    """Bit-identical arrays (same shape, dtype and bytes)."""
    a, b = np.asarray(before), np.asarray(after)
    if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
        return []
    return [f"{what}: predictions are not bit-identical"]


def check_split(original, source, target, source_cats, target_cats) -> list[str]:
    """Source and target label maps are disjoint and their union is the
    original; each side holds only its own categories."""
    out = []
    if not len(original) == len(source) == len(target):
        return [f"split sizes {len(original)}/{len(source)}/{len(target)} differ"]
    src_set, tgt_set = set(source_cats), set(target_cats)
    for orig, s, t in zip(original, source, target):
        if set(s) & set(t):
            out.append(f"source and target labels overlap on {sorted(set(s) & set(t))}")
        elif {**s, **t} != orig:
            out.append("source and target labels do not reunite to the original")
        elif not set(s) <= src_set or not set(t) <= tgt_set:
            out.append("a split side holds categories of the other side")
        if out:
            break
    return out


def check_sampled(sampled_ids, all_ids, rate: float) -> list[str]:
    """floor(rate * n) distinct samples drawn from the target set."""
    want = math.floor(rate * len(all_ids))
    out = []
    if len(sampled_ids) != want:
        out.append(f"sample_target returned {len(sampled_ids)} samples, want {want}")
    if len(set(sampled_ids)) != len(sampled_ids):
        out.append("sample_target returned repeated samples")
    if not set(sampled_ids) <= set(all_ids):
        out.append("sample_target returned samples outside the target set")
    return out


def check_roundtrip(written, loaded) -> list[str]:
    """``load_dataset`` returns exactly the records the benchmark wrote."""
    if written == loaded:
        return []
    return ["load_dataset did not return the records written"]
