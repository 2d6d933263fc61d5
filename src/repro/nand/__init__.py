"""3D charge-trap NAND flash device model.

This package models the storage substrate the paper evaluates on:

* :mod:`repro.nand.spec` — device geometry and timing parameters
  (Table 1 of the paper, plus scaled presets for simulation).
* :mod:`repro.nand.geometry` — flat/structured address translation.
* :mod:`repro.nand.physics` — the tapered-vertical-channel model that
  produces the asymmetric feature process size across gate stack layers.
* :mod:`repro.nand.latency` — per-page asymmetric latency profiles
  (linear / geometric / physical / uniform).
* :mod:`repro.nand.device` — the device: every NAND command over
  per-block state indexed by flat PBN, enforcing the NAND rules
  (in-order programming, erase-before-write), plus the timed-mode op log.
"""
