"""Self-test of the benchmark's own machinery (about 15 s):

    python3 perfbench/selftest.py

* the input generator is byte-deterministic per seed, and the seed matters;
* the output check rejects tampered report.json, similarity.csv and
  sweep_size.csv files;
* a hanging call is cut off by the per-call limit and reported as failed;
* tracing restores the package afterwards; timed calls leave the hot leaf
  functions unwrapped; every span lies inside its call and its parent, and
  cli.self_s is not negative.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import time
from pathlib import Path

import run  # first: pins BLAS/OpenMP threads before numpy loads and puts src/ on the path

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORK = run.OUT / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_generator() -> None:
    for name in inputs.NAMES:
        first = file_hashes(inputs.generate(name, 3, WORK / "gen").config.parent)
        again = file_hashes(inputs.generate(name, 3, WORK / "gen").config.parent)
        other = file_hashes(inputs.generate(name, 4, WORK / "gen").config.parent)
        expect(first == again, f"{name}: same seed, byte-identical inputs")
        expect(first["documents.jsonl"] != other["documents.jsonl"], f"{name}: another seed, other inputs")
        shutil.rmtree(WORK / "gen")


def rewrite_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def test_eval_checks(bench, out: Path) -> None:
    artifacts = bench.workload.artifacts
    expect(bench.reference is not None and not bench.failures, "untampered eval call passes")

    def fresh(name):
        target = WORK / name
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(out, target)
        return target

    t = fresh("ap")
    rewrite_json(t / "report.json", lambda r: r["metrics"].update(ap=r["metrics"]["ap"] + 0.01))
    expect(rejects(checks.check_eval, t, bench.labels), "report.json with ap + 0.01 is rejected")
    expect(checks.digest(t, artifacts) != bench.reference, "report.json edit breaks byte identity")

    t = fresh("f1")
    rewrite_json(t / "report.json", lambda r: r["metrics"].update(f1=r["metrics"]["f1"] - 0.01))
    expect(rejects(checks.check_eval, t, bench.labels), "report.json with f1 - 0.01 is rejected")

    # Reverse the article ids in the header: every score stays plausible, but
    # each column now sits against another article's labels.
    t = fresh("columns")
    header, rest = (t / "similarity.csv").read_text(encoding="utf-8").split("\n", 1)
    first, *article_ids = header.split(",")
    (t / "similarity.csv").write_text(",".join([first, *reversed(article_ids)]) + "\n" + rest, encoding="utf-8")
    expect(rejects(checks.check_eval, t, bench.labels), "similarity.csv with its columns mislabeled is rejected")

    t = fresh("digit")
    text = (t / "similarity.csv").read_text(encoding="utf-8")
    cut = text.index("0.", text.index("\n") + 1) + 2
    digit = "1" if text[cut] != "1" else "2"
    (t / "similarity.csv").write_text(text[:cut] + digit + text[cut + 1 :], encoding="utf-8")
    expect(checks.digest(t, artifacts) != bench.reference, "similarity.csv with one digit changed breaks byte identity")


def test_sweep_check() -> None:
    t = WORK / "sweep"
    t.mkdir(parents=True, exist_ok=True)
    expected = {1: 0.5, 2: 0.625, 4: 0.75, 8: 0.875}
    rows = ["n,ap,n_cascades"] + [f"{n},{ap:.6f},60" for n, ap in expected.items()]
    (t / "sweep_size.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    expect(not rejects(checks.check_sweep, t, expected), "matching sweep_size.csv passes")
    rows[2] = "2,0.626000,60"
    (t / "sweep_size.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    expect(rejects(checks.check_sweep, t, expected), "sweep_size.csv with one ap off by 1e-3 is rejected")
    (t / "sweep_size.csv").write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    expect(rejects(checks.check_sweep, t, expected), "sweep_size.csv missing a size is rejected")


def test_call_limit() -> None:
    from tweetlink import evalx

    start = time.perf_counter()
    status, _ = run.call_with_limit(lambda _argv: evalx.average_precision([math.nan, 0.5], [1, -1]), [], 1.0)
    elapsed = time.perf_counter() - start
    expect(status.startswith("timed out") and elapsed < 5, f"a hanging call is cut off ({status}, {elapsed:.1f} s)")


def test_tracer(bench) -> None:
    from tweetlink import cli, evalx, linker

    original = linker.cosine, evalx.binary_metrics, cli.write_matrix_csv
    tracer = spans.Tracer()
    bench.call(tracer, counting=True)
    bench.call(tracer)
    expect((linker.cosine, evalx.binary_metrics, cli.write_matrix_csv) == original, "tracing restores the package's functions")
    for call in (0, 1):
        problems = tracer.problems(call)
        expect(not problems, f"call {call}: spans nest inside the call and each other, cli.self_s >= 0 {problems[:3]}")
    timed_names = {s[3] for s in tracer.spans if s[0] == 1}
    expect(not timed_names & spans.HOT and "linker.score_matrix" in timed_names, "timed calls leave the hot leaf functions unwrapped")
    m = tracer.metrics()
    expect(m["linker.cosine_calls"] == 72000 and m["corpus.load_pairs_calls"] == 1, "traced counts match the workload")
    expect(m["linker.calibrate_candidates"] > 1000, f"calibration candidates are counted ({m['linker.calibrate_candidates']})")
    expect(m["linker.calibrate_s"] + m["linker.score_s"] > 0.5 * m["trace.pipeline_s"], "calibrate + score dominate tfidf-dense")
    expect(not bench.failures, "the traced calls pass the output check")

    # A broken span record must show: add a nested span that starts 1000 s
    # after a real one ends, past its parent's end and its call's.
    call, span, parent, name, start, end = next(s for s in tracer.spans if s[0] == 1 and s[2] >= 0)
    tracer.spans.append((call, span + 10**9, parent, name, end + 10**12, end + 10**12 + 1))
    expect(bool(tracer.problems(1)), "a span outside its parent and its call is reported")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    test_generator()
    test_sweep_check()
    test_call_limit()
    workload = inputs.generate("tfidf-dense", 1, WORK / "inputs")
    bench = run.Bench(workload, WORK)
    bench.call()
    test_eval_checks(bench, WORK / "call")
    test_tracer(bench)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
