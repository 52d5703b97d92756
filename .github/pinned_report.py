"""Run one ckhopf command, write its output to a report file, and fail unless
the report matches its pinned sha256 and the command's peak RSS stays under a
ceiling.

    python .github/pinned_report.py REPORT CEILING_MB SHA256 CKHOPF_ARGS...

For example:

    python .github/pinned_report.py prelie-e5.json 109 7c7828ae... \\
        verify --suite prelie --max-edges 5 --format json
"""

import hashlib
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    report, ceiling_mb, pin, *args = argv
    t0 = time.perf_counter()
    with open(report, "wb") as out:
        subprocess.run([sys.executable, "-m", "ckhopf.cli", *args], stdout=out, check=True)
    elapsed = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(report, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"ckhopf {' '.join(args)}: {elapsed:.1f} s, peak RSS {peak_mb:.1f} MB (ceiling {ceiling_mb} MB)")
    print(f"sha256 {digest} ({'matches' if digest == pin else 'pinned ' + pin})")
    return int(peak_mb > float(ceiling_mb) or digest != pin)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
