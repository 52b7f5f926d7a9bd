"""Testing infrastructure shipped with the library.

Unlike ``tests/`` (the repository's own suite), the subpackages here are
importable machinery that CI jobs, the nightly fuzzer and downstream
extensions run against the *installed* library:

* :mod:`repro.testing.parity`, the governor/engine differential replay
  harness with its golden decision-trace store and property-based scenario
  fuzzer;
* :mod:`repro.testing.faults`, the deterministic fault-injection harness
  proving any fault schedule of the distributed campaign service yields a
  result bit-identical to an unsharded serial run.
"""
