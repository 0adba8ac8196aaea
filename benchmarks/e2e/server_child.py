"""The served workload's server process.

Opens a durable provider at ``connect()`` defaults (plus the checkpoint
interval the workload names), loads the seeded warehouse, runs the set-up
statements, checkpoints so the bulk load is durable, serves DMX on an
ephemeral port, prints ``PORT <n>`` and then blocks on stdin.  The benchmark
ends it with ``SIGKILL`` — the crash the recovery check needs."""

from __future__ import annotations

import argparse
import sys

from common import require_program


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--durable", required=True)
    parser.add_argument("--customers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint-interval", type=int, required=True)
    args = parser.parse_args()

    require_program()
    import repro
    from repro.datagen import WarehouseConfig, load_warehouse
    from repro.server import DmxServer

    from statements import SERVED_SETUP

    connection = repro.connect(
        durable_path=args.durable,
        durable_checkpoint_interval=args.checkpoint_interval)
    load_warehouse(connection.database,
                   WarehouseConfig(customers=args.customers, seed=args.seed))
    for statement in SERVED_SETUP:
        connection.execute(statement)
    connection.provider.checkpoint()
    server = DmxServer(connection.provider, port=0)
    print(f"PORT {server.port}", flush=True)
    sys.stdin.read()
    connection.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
