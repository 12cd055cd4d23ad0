"""repro.fuzz — coverage-guided scenario fuzzing with shrinking.

Each fuzzed surface is one :class:`~repro.fuzz.lanes.FuzzLane` record
(:mod:`repro.fuzz.lanes`): a seeded generator of update plans, fault
campaigns, serve specs or operations sessions, the mutations that
evolve retained cases, the shrink candidates, and an oracle that
classifies a case as pass / violation / divergence / crash against the
static verifier, short simulations and cross-system checks.  The
generic layers drive the lanes: :mod:`repro.fuzz.gen` generates and
mutates, :mod:`repro.fuzz.oracles` classifies with crash containment,
coverage signals (:mod:`repro.fuzz.coverage`) drive corpus retention,
failing cases are delta-debugged to minimal repros
(:mod:`repro.fuzz.shrink`) and committed as self-contained JSON
documents (:mod:`repro.fuzz.corpus`) replayed forever by pytest.
Campaigns (:mod:`repro.fuzz.campaign`) shard through the sweep fleet.
"""
