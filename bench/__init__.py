"""seedforge benchmark: seeded offline workloads driven through the CLI.

Run it with `python3 bench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; bench/README.md
lists the workloads and metrics.
"""
