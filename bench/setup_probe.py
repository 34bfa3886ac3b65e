"""Set-up probe: the public calls a command makes before its first unit of work.

    python bench/setup_probe.py <command> [CONFIG]

Imports dipolariton, parses the config, derives the EIT quantities, builds
the kernel table and prepares the initial state, as far as the command needs
them, then prints one JSON line: the CLOCK_MONOTONIC reading at that point
("ready") and the file the package was imported from. The caller reads the
same clock before spawning this process, so ready minus spawn is the set-up
time including interpreter start-up. Quantities are built in SI units; the
command builds them in scaled units, at the same cost.
"""

import json
import math
import sys
import time

TABLE = ("kernel", "evolve", "respond")
STATE = ("evolve", "respond")


def main(argv) -> int:
    command = argv[0]
    import dipolariton
    from dipolariton import (
        GpeParams, KernelSpec, derive_eit, init_state, kernel_table_fourier, parse_config,
    )

    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        derived = derive_eit(cfg.medium) if cfg.medium is not None else None
        if command in TABLE:
            spec = KernelSpec(orientation=cfg.get("kernel.orientation"),
                              strength=cfg.get("kernel.strength"))
            table = kernel_table_fourier(cfg.grid, spec, method=cfg.get("kernel.method", "lattice"))
        if command in STATE:
            params = GpeParams(m_perp=derived.m_perp, m_par=derived.m_par.real,
                               sin2_theta=math.sin(derived.theta) ** 2, table=table)
            if command == "evolve":
                init_state("gaussian", params, widths=cfg.get("run.gaussian_widths"))
            else:
                init_state("perturbed_plane_wave", params, n0=cfg.get("run.n0"),
                           delta=cfg.get("run.delta_amp"), q=cfg.get("run.q_perturb"))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "module_file": dipolariton.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
