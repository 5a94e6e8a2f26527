"""The repo benchmark: generators, workload drivers, tracer and comparer.

See ``perf/README.md``.  Imports ``repro`` through its public API only.
"""
