"""Depth audit: the deep towers' reports against their full pinned sha256.

    PYTHONPATH=src python tests/depth_audit.py [NAME ...]

Each row runs `cyclodiff.cli.main` in a child process that limits its own
address space to 1 GB (`RLIMIT_AS`) before it imports the package.  The
script prints one line per row: `ok` or `MISMATCH`, the wall time of the
child from start to exit, its peak RSS, and the report's hash.  It exits 1
on any mismatch or failed child.  NAME picks rows by name; with none, every
row runs (about 3 minutes on a 2-core machine, 1.5 of them p3-l6).  The
rows lie outside every benchmark and every tier-1 test; they are where the
lattice kernel and the constants cells meet towers deeper than the desk
configs.
Stdlib only; pytest does not collect it (no `test_` prefix).
"""

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time

DEEP = ["--prec", "20", "--constants-samples", "1", "--samples", "2"]
ROWS = {
    "p5-l3": (
        ["verify", "all", "--p", "5", "--levels", "3", *DEEP],
        "393259573696f6f150e4b34f1f73f40139b6e44eb3583a7a91292edaff30e2d2",
    ),
    "p3-l5": (
        ["verify", "all", "--p", "3", "--levels", "5", *DEEP],
        "031bb9b24229443cba8bd24e6407a9a9519ff7cdc3e4cc7b47e2be1035ddc66e",
    ),
    "p2-l9": (
        ["verify", "all", "--p", "2", "--levels", "9", *DEEP],
        "0249a00404b228779cc51c2f8d185d26bfbb5d24e6fad42b31408f1d85a2a0e4",
    ),
    "p3-l6": (
        ["verify", "all", "--p", "3", "--levels", "6", *DEEP],
        "057ccc223d619ebda65a2a01fabb4c1bddf83f75dd04ff8ac4370ee47e8c326d",
    ),
    "p2-l9-constants": (
        ["constants", "--p", "2", "--levels", "9", "--prec", "20", "--samples", "1"],
        "0aabd6b7a51b90675f5db332ed13db62855d3e77d8d339c7fb854632c1eb88f1",
    ),
}
LIMIT = 1 << 30


def child(name: str) -> None:
    """Run one row under the address-space limit and print a JSON line."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    from cyclodiff.cli import main  # imported under the limit

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(ROWS[name][0])
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


def audit(names) -> int:
    bad = 0
    for name in names:
        argv, pin = ROWS[name]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, __file__, "--child", name],
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode:
            print(f"FAILED    {name}  exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            bad += 1
            continue
        got = json.loads(proc.stdout)
        ok = got["exit"] == 0 and got["sha256"] == pin
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH':<9} {name}  {wall:6.1f} s  {got['rss_mb']:5.0f} MB  "
              f"{got['sha256'] if not ok else pin[:8]}  exit {got['exit']}  tower {' '.join(argv)}")
    print(f"{len(names) - bad}/{len(names)} deep reports match their pins")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(audit(sys.argv[1:] or list(ROWS)))
