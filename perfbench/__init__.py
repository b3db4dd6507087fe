"""Closed-loop benchmark of the mole pipeline (see perfbench/README.md).

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
