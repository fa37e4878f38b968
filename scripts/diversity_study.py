#!/usr/bin/env python3
"""Print the terminal diversity-order table for the three regimes:
fresh feedback (order M), delayed feedback (order 1), estimation errors
(order 0).  Exits 1 when any row's measured order does not match.

Usage: python scripts/diversity_study.py
"""

import sys

from relaysel.channel import SystemConfig
from relaysel.diversity import asymptotic_checks

snrs = list(range(25, 47, 3))

cases = [
    ("fresh feedback, M=3", dict(M=3, rho_e=1.0, rho_f=1.0)),
    ("delayed feedback, M=2", dict(M=2, rho_e=1.0, rho_f=0.9)),
    ("delayed feedback, M=4", dict(M=4, rho_e=1.0, rho_f=0.9)),
    ("estimation error, M=3", dict(M=3, rho_e=0.99, rho_f=0.9)),
]

failed = False
for name, kw in cases:
    rep = asymptotic_checks(SystemConfig.symmetric(power=1.0, **kw), snrs)
    status = "ok" if rep["passed"] else "MISMATCH"
    failed = failed or not rep["passed"]
    print(f"{name:28s} scenario={rep['scenario']:24s} "
          f"expected={rep['expected_order']:<4} {rep['detail']} [{status}]")

sys.exit(1 if failed else 0)
