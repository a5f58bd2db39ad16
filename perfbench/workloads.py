"""The four benchmark workloads: seeded inputs and the child spec of each.

Inputs are a function of the benchmark seed alone, and the program receives
only the generated configs or arguments.  ``ic_sweep`` draws its members
from a fixed pool of initial conditions (``reference/ic_pool.json``), and
``gain_design`` draws its search seeds from a fixed range, so every input a
seed can select has a stored reference fingerprint.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
POOL_FILE = REFERENCE_DIR / "ic_pool.json"

# Horizons of the two `safeadp run` workloads, in simulated seconds.  They
# keep one iteration near 3 s of wall time, so a run holds several of them.
SAFE_STUDY_HORIZON = "3"
LQ_ORACLE_HORIZON = "4"
RUN_STRIDE = 500          # fingerprint every 500th logged row of a run

POOL_SIZE = 128
POOL_SEED = 20240626
SWEEP_HORIZON = 0.25      # simulated seconds per sweep member
SWEEP_MEMBERS = 32        # members per iteration, drawn from the pool
MEMBER_STRIDE = 50        # members log 251 rows; fingerprint every 50th

GAIN_PLANTS = ("study1", "study2")
GAIN_MODES = ("theta_identity", "all_vertices")
GAIN_SEEDS = 16           # synthesis search seeds are drawn from range(16)

NAMES = ("safe_study", "lq_oracle", "ic_sweep", "gain_design")


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def member_config(pool: dict, index: int) -> dict:
    """The study1 config with one pool member's initial conditions."""
    cfg = json.loads(json.dumps(pool["base_config"]))
    ic = pool["members"][index]
    cfg["sim"].update(x0=ic["x0"], x_hat0=ic["x_hat0"], T=pool["horizon"])
    return cfg


def sweep_indices(seed: int, pool: dict,
                  members: int = SWEEP_MEMBERS) -> list[int]:
    """Members drawn from the pool, stratified by their reference outcome.

    Every seed takes the pool's share of members whose reference run aborts,
    so an iteration's work, and with it wall_s, does not depend on how many
    early aborts a seed happens to draw.
    """
    rng = random.Random(seed)
    aborting = [i for i, m in enumerate(pool["members"]) if m["reference_abort"]]
    running = [i for i, m in enumerate(pool["members"])
               if not m["reference_abort"]]
    n_abort = round(members * len(aborting) / len(pool["members"]))
    picked = rng.sample(aborting, n_abort) + rng.sample(running,
                                                        members - n_abort)
    rng.shuffle(picked)
    return picked


def gain_case(plant: str, mode: str, search_seed: int) -> dict:
    return {"key": f"synth/{plant}/{mode}/{search_seed}", "plant": plant,
            "mode": mode, "seed": search_seed}


def gain_cases(seed: int) -> list[dict]:
    """One synthesis per (plant, mode), its search seed drawn from seed."""
    rng = random.Random(seed)
    return [gain_case(plant, mode, rng.randrange(GAIN_SEEDS))
            for plant in GAIN_PLANTS for mode in GAIN_MODES]


RUN_OUTPUTS = ("trajectory.csv", "summary.json", "plotdata/state_space.csv",
               "plotdata/weights.csv", "plotdata/control.csv")


def cli_spec(key: str, preset: str, horizon: str, certificate: bool) -> dict:
    """`safeadp run`; a run with an observer also writes certificate.json."""
    outputs = [*RUN_OUTPUTS, *(["certificate.json"] if certificate else [])]
    return {"kind": "cli", "key": key, "stride": RUN_STRIDE, "outputs": outputs,
            "argv": ["run", "--preset", preset, "--horizon", horizon]}


def members_spec(pool: dict, indices) -> dict:
    return {"kind": "members", "stride": MEMBER_STRIDE,
            "members": [{"key": f"ic/{i}", "config": member_config(pool, i)}
                        for i in indices]}


def gains_spec(cases) -> dict:
    return {"kind": "gains", "plants": list(GAIN_PLANTS), "cases": cases}


def spec(name: str, seed: int) -> dict:
    """Child spec of one iteration of workload name for this seed."""
    if name == "safe_study":
        return cli_spec("safe_study", "study2", SAFE_STUDY_HORIZON, True)
    if name == "lq_oracle":
        return cli_spec("lq_oracle", "lq_oracle", LQ_ORACLE_HORIZON, False)
    if name == "ic_sweep":
        pool = load_pool()
        return members_spec(pool, sweep_indices(seed, pool))
    if name == "gain_design":
        return gains_spec(gain_cases(seed))
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def expected_ops(child_spec: dict) -> int:
    """Operations (runs or syntheses) one iteration attempts."""
    kind = child_spec["kind"]
    if kind == "cli":
        return 1
    if kind == "members":
        return len(child_spec["members"])
    return len(child_spec["cases"])
