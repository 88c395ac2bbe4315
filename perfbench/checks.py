"""Output checks run after every benchmark call.

A call passes when it exited 0, wrote every artifact byte-identical to the
run's reference call, and its reported numbers agree with an independent
recomputation from the artifacts and the input pairs file:

* eval: the reported AP equals a brute-force AP over similarity.csv, and the
  reported F1 is not below the best F1 of an exhaustive threshold scan;
* sweep-size: each row's AP equals a brute-force AP over cascade rows
  aggregated here from a reference similarity matrix.

Nothing here imports the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

# similarity.csv holds 6-decimal scores and report.json 6-decimal metrics.
# Rounding scores is monotone, so it can only merge near-ties into ties. Over
# 33 workload/seed pairs that moved AP by at most 4e-5. Using tp / (seen + 1)
# for precision in average_precision moves tfidf-dense AP by 1e-3.
AP_TOL = 2e-4
# The reported F1 is the optimum over unrounded scores, and rounded-score
# cuts are a subset of those, so only report.json's own rounding can make it
# read lower than the scan.
F1_TOL = 1e-6


class CheckFailed(Exception):
    pass


def digest(out_dir: Path, artifacts) -> dict[str, str]:
    out = {}
    for name in artifacts:
        path = out_dir / name
        if not path.is_file():
            raise CheckFailed(f"missing artifact {name}")
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_matrix(path: Path):
    """similarity.csv -> (tweet ids, article ids, float matrix)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["tweet_id"]:
        raise CheckFailed(f"{path.name}: bad header")
    article_ids = rows[0][1:]
    tweet_ids = [r[0] for r in rows[1:]]
    try:
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if values.shape != (len(tweet_ids), len(article_ids)) or not np.isfinite(values).all():
        raise CheckFailed(f"{path.name}: ragged or non-finite matrix")
    return tweet_ids, article_ids, values


def read_labels(pairs_path: Path) -> dict[tuple[str, str], int]:
    """(tweet, article) -> +1 match / -1 no_match; unknown cells are left out."""
    out = {}
    with open(pairs_path, encoding="utf-8") as fh:
        for line in fh:
            p = json.loads(line)
            if p["label"] != "unknown":
                out[(p["tweet_id"], p["article_id"])] = 1 if p["label"] == "match" else -1
    return out


def label_matrix(labels, tweet_ids, article_ids) -> np.ndarray:
    gt = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.int8)
    t_index = {t: i for i, t in enumerate(tweet_ids)}
    a_index = {a: j for j, a in enumerate(article_ids)}
    for (t, a), y in labels.items():
        if t in t_index and a in a_index:
            gt[t_index[t], a_index[a]] = y
    return gt


def _ranked(values, gt):
    scores = values[gt != 0]
    pos = np.sort(values[gt == 1])
    if pos.size == 0:
        raise CheckFailed("no positive labeled cell")
    return np.sort(scores), pos


def brute_ap(values, gt) -> float:
    """Mean over positives of the precision among all cells scoring >= it.

    Tied scores enter together, which is the package's documented definition.
    """
    ranked, pos = _ranked(values, gt)
    n_ge = ranked.size - np.searchsorted(ranked, pos, side="left")
    tp_ge = pos.size - np.searchsorted(pos, pos, side="left")
    return float(np.mean(tp_ge / n_ge))


def best_f1(values, gt) -> float:
    """Highest F1 over every threshold `score >= t` (t at each distinct score)."""
    ranked, pos = _ranked(values, gt)
    thresholds = np.unique(ranked)
    predicted = ranked.size - np.searchsorted(ranked, thresholds, side="left")
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    return float(np.max(2.0 * tp / (predicted + pos.size)))


def check_eval(out_dir: Path, labels) -> float:
    """Validate report.json against similarity.csv; returns the reported AP."""
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        ap, f1 = float(report["metrics"]["ap"]), float(report["metrics"]["f1"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"report.json: {exc!r}") from None
    tweet_ids, article_ids, values = read_matrix(out_dir / "similarity.csv")
    gt = label_matrix(labels, tweet_ids, article_ids)
    expected_ap = brute_ap(values, gt)
    if not abs(ap - expected_ap) <= AP_TOL:
        raise CheckFailed(f"reported ap {ap} != brute-force ap {expected_ap:.6f}")
    scan_f1 = best_f1(values, gt)
    if not f1 >= scan_f1 - F1_TOL:
        raise CheckFailed(f"reported f1 {f1} below threshold-scan f1 {scan_f1:.6f}")
    return ap


def read_cascades(documents: Path) -> dict[str, list[str]]:
    """Root tweet id -> member ids, oldest first (created_at, depth, id)."""
    tweets = {}
    with open(documents, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            if d["kind"] == "tweet":
                tweets[d["id"]] = d
    depth: dict[str, int] = {}

    def root_and_depth(tid):
        chain = []
        while tweets[tid].get("parent_id") in tweets:
            chain.append(tid)
            tid = tweets[tid]["parent_id"]
        for i, member in enumerate(reversed(chain), start=1):
            depth[member] = i
        depth[tid] = 0
        return tid

    members: dict[str, list[str]] = {}
    for tid in tweets:
        members.setdefault(root_and_depth(tid), []).append(tid)
    for root, ids in members.items():
        ids.sort(key=lambda t: (tweets[t]["created_at"], depth[t], t))
    return members


def expected_sweep(similarity_csv: Path, documents: Path, labels, sizes) -> dict[int, float]:
    """Brute-force AP per cut size from a tweet-level similarity matrix."""
    tweet_ids, article_ids, values = read_matrix(similarity_csv)
    row_of = dict(zip(tweet_ids, values))
    cascades = read_cascades(documents)
    roots = list(cascades)
    gt = label_matrix(labels, roots, article_ids)
    out = {}
    for n in sizes:
        agg = np.array([np.mean([row_of[t] for t in cascades[r][:n]], axis=0) for r in roots])
        out[n] = brute_ap(np.clip(agg, -1.0, 1.0), gt)
    return out


def check_sweep(out_dir: Path, expected: dict[int, float]) -> float:
    """Validate sweep_size.csv row by row; returns the AP of the largest cut."""
    try:
        text = (out_dir / "sweep_size.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        got = {int(r["n"]): float(r["ap"]) for r in rows}
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"sweep_size.csv: {exc!r}") from None
    if sorted(got) != sorted(expected):
        raise CheckFailed(f"sweep sizes {sorted(got)} != {sorted(expected)}")
    for n, ap in got.items():
        if not abs(ap - expected[n]) <= AP_TOL:
            raise CheckFailed(f"sweep n={n}: reported ap {ap} != brute-force ap {expected[n]:.6f}")
    return got[max(got)]
