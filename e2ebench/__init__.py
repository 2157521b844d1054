"""End-to-end benchmark for the reproduction pipeline and the list service.

The benchmark measures the system only from outside: the ``repro`` CLI in
a child process for the pipeline workloads, a spawned ``repro serve`` on a
real socket for the service workloads, and, in a separate traced run,
wrappers around the public calls of each layer.  ``python -m e2ebench
--help`` lists the options; ``e2ebench/README.md`` explains the workloads
and metrics.
"""
