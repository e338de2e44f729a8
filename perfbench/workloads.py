"""Workload inputs, output checks and output checksums.

Inputs come from the benchmark's ``--seed``: the default seed gives the
master seeds the repository uses today (README ``master_seed`` 1, check 4's
31415); any other seed derives new ones.  The program only sees the
generated config file or arguments.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

import numpy as np

from fracheat import acceptance, cli

NAMES = ("selftest-quick", "mc-oracle", "ensemble-io", "long-horizon")
DEFAULT_SEED = 0
README_SEED = 1
CHECK4_SEED = 31415
_BASE_SEEDS = {"mc-oracle": CHECK4_SEED, "ensemble-io": README_SEED, "long-horizon": README_SEED}

# The example config.json of README.md ("Command line"), copied verbatim.
README_CONFIG = {
    "model": {
        "alpha": 1.5,
        "lam": 4.0,
        "p": 2.0,
        "sigma": {"kind": "linear", "l_sigma": 1.0, "L_sigma": 1.0},
    },
    "discretization": {
        "n": 64,
        "dt": 0.00390625,
        "t_end": 1.0,
        "snapshot_times": [0.25, 0.5, 1.0],
    },
    "sweep": {"lambda_min": 8.0, "lambda_max": 128.0, "count": 5},
    "ensemble": {"n_paths": 400, "master_seed": 1, "worker_count": 2},
    "outputs": {"directory": "out/demo", "emit_svg": True},
}

# Check 4's inputs (acceptance.check_mc_oracle): desk operator, tent u0, lambda 1.
MC_ORACLE = {
    "alpha": 1.5, "L": 1.0, "n": 64, "mu": 0.1, "lam": 1.0,
    "t_end": 0.5, "dt": 1.0 / 1024.0, "volterra_steps": 1024,
    "n_paths": 10_000, "worker_count": 2,
}


def master_seed(workload: str, seed: int) -> int:
    """Master seed the program receives for ``workload`` at benchmark seed ``seed``
    (None for the deterministic ``selftest-quick``)."""
    if workload not in _BASE_SEEDS:
        return None
    if seed == DEFAULT_SEED:
        return _BASE_SEEDS[workload]
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config(workload: str, seed: int):
    """Config document for a CLI workload, or None when it takes no config."""
    if workload in ("selftest-quick", "mc-oracle"):
        return None
    doc = copy.deepcopy(README_CONFIG)
    doc["ensemble"]["master_seed"] = master_seed(workload, seed)
    if workload == "ensemble-io":
        doc["ensemble"]["n_paths"] = 4096
    else:  # long-horizon
        doc["discretization"].update(n=128, dt=1.0 / 2048.0, t_end=1.0)
        doc["ensemble"].update(n_paths=512, worker_count=2)
    return doc


# ---------------------------------------------------------------------------
# Checks, run by the parent after the child has exited (outside the timed
# window).  Each takes (output dir, child report, config, benchmark seed) and
# returns a list of (operation, ok, detail).


def _exit_ops(report: dict) -> list:
    return [
        (f"cli {cmd}", rc == 0, f"exit code {rc}")
        for cmd, rc in report.get("exit_codes", {}).items()
    ]


def _check_selftest(out: str, report: dict, doc, seed: int) -> list:
    res = cli.read_json_file(os.path.join(out, "selftest.json"))
    checks = res.get("checks", [])
    ops = _exit_ops(report)
    ops.append((
        "selftest.json", res.get("passed") is True and res.get("n_checks") == 8 and len(checks) == 8,
        f"passed {res.get('passed')}, {len(checks)} checks",
    ))
    ops += [(f"check {c['name']}", c["passed"] is True, c["detail"]) for c in checks]
    return ops


def check4_gaps(out: str) -> tuple:
    """(coarse, fine) grid-max relative gaps to the Volterra oracle, and flagged counts."""
    with np.load(os.path.join(out, "check4.npz")) as z:
        oracle = z["oracle"]
        dc = float(np.max(np.abs(z["coarse"] - oracle) / oracle))
        df = float(np.max(np.abs(z["fine"] - oracle) / oracle))
        flagged = [int(v) for v in z["flagged"]]
    return dc, df, flagged


def _check_mc_oracle(out: str, report: dict, doc, seed: int) -> list:
    dc, df, flagged = check4_gaps(out)
    ratio = dc / df
    lo, hi = acceptance.RATIO_MC_WINDOW
    # The dt-halving ratio is a statistical gate tuned on check 4's pinned
    # seed; 3 of 42 master seeds tried put it just under 1.5 (NOTES.md), so it
    # gates at the default seed only and is reported at the others.
    ratio_ok = lo <= ratio <= hi or seed != DEFAULT_SEED
    ok = dc <= acceptance.TOL_MC_ORACLE and ratio_ok and flagged == [0, 0]
    note = "" if lo <= ratio <= hi else " outside the window, gated at the default seed only"
    return [(
        "check-4 gates", ok,
        f"dt=1/1024 gap {dc:.4%} (tol {acceptance.TOL_MC_ORACLE:.0%}), dt=1/2048 gap {df:.4%}, "
        f"ratio {ratio:.3f} (window {acceptance.RATIO_MC_WINDOW}{note}), flagged {flagged}",
    )]


def _check_ensemble_io(out: str, report: dict, doc, seed: int) -> list:
    ops = _exit_ops(report)
    meta = cli.read_json_file(os.path.join(out, "metadata.json"))
    d = doc["discretization"]
    want = [len(d["snapshot_times"]), doc["ensemble"]["n_paths"], d["n"]]
    rb = report.get("readback", {})
    ops.append(("read-back shape", rb.get("shape") == want, f"{rb.get('shape')} (want {want})"))
    ops.append((
        "read-back NaN paths", rb.get("nan_paths") == meta["flagged_count"],
        f"{rb.get('nan_paths')} NaN paths, metadata flagged_count {meta['flagged_count']}",
    ))
    for name, rows in (("moments.csv", len(d["snapshot_times"])),
                       ("sweep.csv", len(d["snapshot_times"]) * doc["sweep"]["count"])):
        got = len(cli.read_sweep_csv(os.path.join(out, name)).rows)
        ops.append((f"re-read {name}", got == rows, f"{got} rows (want {rows})"))
    fits = cli.read_json_file(os.path.join(out, "fits.json"))
    ops.append(("fits.json e_hat", fits.get("e_hat") is not None, f"e_hat {fits.get('e_hat')}"))
    return ops


def _check_long_horizon(out: str, report: dict, doc, seed: int) -> list:
    ops = _exit_ops(report)
    meta = cli.read_json_file(os.path.join(out, "metadata.json"))
    d, e, m = doc["discretization"], doc["ensemble"], doc["model"]
    disc = meta["discretization"]
    mismatches = [
        label for label, got, want in (
            ("n_paths", meta["n_paths"], e["n_paths"]),
            ("master_seed", meta["master_seed"], e["master_seed"]),
            ("snapshot_times", meta["snapshot_times"], d["snapshot_times"]),
            ("n", disc["n"], d["n"]),
            ("dt", disc["dt"], d["dt"]),
            ("t_end", disc["t_end"], d["t_end"]),
            ("alpha", meta["model"]["alpha"], m["alpha"]),
            ("lambda", meta["model"]["lambda"], m["lam"]),
        ) if got != want
    ]
    ops.append((
        "metadata.json", not mismatches,
        "consistent with the config" if not mismatches else f"differs in {mismatches}",
    ))
    return ops


CHECKS = {
    "selftest-quick": _check_selftest,
    "mc-oracle": _check_mc_oracle,
    "ensemble-io": _check_ensemble_io,
    "long-horizon": _check_long_horizon,
}


# ---------------------------------------------------------------------------
# Output checksums: equal on every run of one seed on one commit.


def _sha_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def checksums(workload: str, out: str) -> dict:
    if workload == "selftest-quick":
        # elapsed_s is a timing; everything else in the report is deterministic
        res = cli.read_json_file(os.path.join(out, "selftest.json"))
        for c in res["checks"]:
            del c["elapsed_s"]
        text = json.dumps(res, sort_keys=True).encode()
        return {"selftest.json without elapsed_s": hashlib.sha256(text).hexdigest()}
    if workload == "mc-oracle":
        with np.load(os.path.join(out, "check4.npz")) as z:
            return {
                f"check-4 {k}": hashlib.sha256(np.ascontiguousarray(z[k]).tobytes()).hexdigest()
                for k in ("coarse", "coarse_se", "fine", "fine_se")
            }
    names = ("ensemble.csv", "moments.csv", "sweep.csv", "fits.json")
    if workload == "long-horizon":
        names = ("ensemble.csv", "metadata.json")
    return {n: _sha_file(os.path.join(out, n)) for n in names}
