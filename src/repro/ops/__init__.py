"""The live operations plane.

A long-lived serve session (:mod:`repro.serve`) overlaid with a
declarative operations timeline — tenant migrations, rolling switch
drains, capacity rebalancing — plus rolling on-disk replay points, so
a multi-hour simulated session can be stopped and resumed
byte-identically by re-running its spec to the last checkpoint
(``repro ops run|checkpoint|resume``).
"""
