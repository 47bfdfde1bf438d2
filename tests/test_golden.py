"""Golden outputs: every CLI command still reproduces the committed corpus.

``regen_golden.py`` wrote ``data/golden``; this test reruns each of its
commands in process and compares the outputs file by file.  CSV headers and
row counts must be equal and every value column must agree to 1e-14 of the
column's largest magnitude.  The oracle's relative-error columns are
differences of nearby numbers and get 1e-12 absolute.  JSON summaries must
have the same keys and strings, and numbers within 1e-10 (absolute or
relative); fit residuals are fit noise and are held only to their 1e-8
bound.  Run with ``-s`` to see the worst difference of each file.
"""

import json

import numpy as np
from regen_golden import GOLDEN, cases, run

CSV_TOL = 1e-14
ERROR_COLUMNS = ("nc_rel_error", "r_rel_error")
ERROR_TOL = 1e-12
JSON_TOL = 1e-10
RESIDUAL_BOUND = 1e-8


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[:2], np.loadtxt(lines[2:], delimiter=",", ndmin=2)


def _csv_mismatches(new, old) -> tuple[float, list[str]]:
    """Worst column-scaled difference and the failures of one CSV."""
    head, a = _read_csv(new)
    head_ref, b = _read_csv(old)
    if head != head_ref or a.shape != b.shape:
        return np.inf, [f"header or shape: {head} {a.shape} vs {head_ref} {b.shape}"]
    worst, bad = 0.0, []
    for name, x, y in zip(head[1].split(","), a.T, b.T):
        diff = np.abs(x - y).max()
        tol = ERROR_TOL
        if name not in ERROR_COLUMNS:
            diff /= np.abs(y).max() or 1.0
            tol = CSV_TOL
        worst = max(worst, diff)
        if not diff <= tol:
            bad.append(f"column {name}: {diff:.2e} > {tol:.0e}")
    return worst, bad


def _json_mismatches(new, old, key="") -> tuple[float, list[str]]:
    """Worst difference and the failures of one JSON value, recursively."""
    if isinstance(old, dict):
        if not isinstance(new, dict) or new.keys() != old.keys():
            return np.inf, [f"{key}: keys {sorted(new)} vs {sorted(old)}"]
        parts = [_json_mismatches(new[k], old[k], k) for k in old]
        return max((w for w, _ in parts), default=0.0), [m for _, b in parts for m in b]
    if isinstance(old, float) and "residual" in key:
        ok = isinstance(new, float) and new <= RESIDUAL_BOUND
        return 0.0, [] if ok else [f"{key}: {new} above {RESIDUAL_BOUND:.0e}"]
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        diff = abs(new - old)
        diff = min(diff, diff / abs(old)) if old else diff
        return diff, [] if diff <= JSON_TOL else [f"{key}: {new!r} vs {old!r}"]
    return 0.0, [] if new == old else [f"{key}: {new!r} vs {old!r}"]


def test_cli_outputs_match_golden_corpus(tmp_path):
    failures = []
    for argv, names in cases(tmp_path):
        run(argv)
        for name in names:
            new, old = tmp_path / name, GOLDEN / name
            if name.endswith(".csv"):
                worst, bad = _csv_mismatches(new, old)
            else:
                worst, bad = _json_mismatches(json.loads(new.read_text(encoding="utf-8")),
                                              json.loads(old.read_text(encoding="utf-8")))
            print(f"{name}: worst difference {worst:.2e}")
            failures += [f"{name}: {m}" for m in bad]
    assert failures == []
