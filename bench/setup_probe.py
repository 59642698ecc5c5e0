"""Per-invocation set-up cost of the sigmaevo CLI, measured in a fresh process.

Usage: PYTHONPATH=src python3 bench/setup_probe.py CONFIG.json

Times importing ``sigmaevo.cli``, loading the run config and building the
initial data, and prints the seconds on one line.
"""
import sys
import time


def main(config_path: str) -> float:
    t0 = time.perf_counter()
    from sigmaevo import cli

    config = cli.RunConfig.load(config_path)
    config.u0.build(config.grid)
    config.u1.build(config.grid)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
