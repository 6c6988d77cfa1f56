"""Byte audit: eight reports against their full pinned sha256.

    PYTHONPATH=src python tests/byte_audit.py

Each report runs in process through `cyclodiff.cli.main`, and the script
prints one line per report: `ok` or `MISMATCH` with the hash it got.  It
exits 1 on any mismatch, so a change meant to keep every report byte can be
checked beyond the goldens and the sweep.  The two `verify all` desk reports
are the benchmark's seed-0 pins; the other six are pinned here only.  The
last three run at the series benchmark's size (p = 5, 3 levels, phi 500):
a random element's perp series, then `series --op reconstruct` and `--op
invert` on that series, read from a temporary file.  The deep p = 2
constants report takes about 10 s.
Stdlib only; pytest does not collect it (no `test_` prefix).
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from cyclodiff.cli import main

DESK_P3 = ["--p", "3", "--s", "1", "--levels", "4", "--prec", "60"]
DESK_P2 = ["--p", "2", "--s", "2", "--levels", "3", "--prec", "60"]
SERIES_P5 = ["--p", "5", "--s", "1", "--levels", "3", "--prec", "60"]
SERIES_FILE = "SERIES_FILE"  # the series of the last decompose report, in a file
REPORTS = [
    (
        ["verify", "all", *DESK_P3, "--seed", "0", "--constants-samples", "200"],
        "c44df2ef02bf552af17856431037bf12ca6e79409ab6b1154d5e47711aa7da5b",
    ),
    (
        ["verify", "all", *DESK_P2, "--seed", "0", "--constants-samples", "200"],
        "9e90a093747060ed3662d22890e01295d78bf858e200f94370ca18b049e84df6",
    ),
    (
        ["constants", *DESK_P3, "--seed", "0", "--samples", "1000"],
        "78d3ce14d0deb48bd154b15b1e69fe810402f72e3546aa90f46ff8c96f0c2a1f",
    ),
    (
        ["verify", "all", "--p", "5", "--levels", "2", "--prec", "10",
         "--constants-samples", "4", "--samples", "2"],
        "709343c5f0746b237f7a92769e2420b7d726c8a00b0daf841bbf2596ea6b71ac",
    ),
    (
        ["constants", "--p", "2", "--levels", "8", "--prec", "20", "--samples", "1"],
        "7070b571be4bcd8923385e46032960c75729c16cd618f3e72764a71cc162a3b2",
    ),
    (
        ["decompose", *SERIES_P5, "--random", "--seed", "0"],
        "526e49787842fdca97b26ccf42acf9debf1ce48cc80e3c1d759d71390397ec08",
    ),
    (
        ["series", "--op", "reconstruct", *SERIES_P5, "--series-file", SERIES_FILE],
        "e0c71804b0894918a4d7a7183150263dfeb6618e06ac9fa41869a6ebfa608d6f",
    ),
    (
        ["series", "--op", "invert", *SERIES_P5, "--series-file", SERIES_FILE],
        "b5aaf72a9463e565810024705a90711feeb125c6f6ad2a2833b2924158db4d05",
    ),
]


def report_text(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def audit() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        series_file = os.path.join(tmp, "series.json")
        bad = [check(argv, pin, series_file) for argv, pin in REPORTS].count(False)
    print(f"{len(REPORTS) - bad}/{len(REPORTS)} reports match their pins")
    return 1 if bad else 0


def check(argv, pin, series_file) -> bool:
    """Run one report and print its line; a decompose report leaves its series
    in ``series_file`` for the `series` reports after it."""
    text = report_text([series_file if a == SERIES_FILE else a for a in argv])
    if argv[0] == "decompose":
        with open(series_file, "w", encoding="utf-8") as fh:
            json.dump(json.loads(text)["series"], fh)
    got = hashlib.sha256(text.encode()).hexdigest()
    if got == pin:
        print(f"ok        {pin[:8]}  tower {' '.join(argv)}")
        return True
    print(f"MISMATCH  {got} != {pin}  tower {' '.join(argv)}")
    return False


if __name__ == "__main__":
    sys.exit(audit())
