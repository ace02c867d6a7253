"""Regression guard for the wall-clock benches: warn, never fail.

    python benchmarks/guard.py FILE KEY[:lower] ...

Compares each ``KEY`` (a dotted path, e.g. ``latency_ms.p99``) of the
freshly written ``FILE`` with the copy committed at ``HEAD`` and prints a
GitHub workflow warning when it is more than 20 % worse — lower, or with
``:lower`` (a latency: lower is better) higher.  A bench that died before
writing ``FILE`` is a warning too.  Wall clock on a shared runner is
evidence, not a gate: the exit status is always 0.
"""

import json
import pathlib
import subprocess
import sys

THRESHOLD = 0.20


def lookup(payload, dotted):
    for part in dotted.split("."):
        payload = payload.get(part) if isinstance(payload, dict) else None
    return payload


def main(path, *keys):
    if not pathlib.Path(path).exists():
        print(f"::warning title={path}::the bench wrote no {path} — it "
              "failed before its results")
        return
    fresh = json.loads(pathlib.Path(path).read_text())
    try:
        committed = json.loads(subprocess.check_output(
            ["git", "show", f"HEAD:{path}"], text=True
        ))
    except subprocess.CalledProcessError:
        print(f"no committed {path} baseline; skipping")
        return
    for key in keys:
        key, _, direction = key.partition(":")
        base, now = lookup(committed, key), lookup(fresh, key)
        if not base or not now:
            continue
        worse = (now - base) / base if direction == "lower" \
            else (base - now) / base
        line = f"{key}: baseline {base}, fresh {now} ({worse:+.0%} worse)"
        if worse > THRESHOLD:
            print(f"::warning title={path} regression::{line}")
        else:
            print(line)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
