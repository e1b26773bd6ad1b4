package xlate

// ReplayTraceWithPhysBytes exposes ReplayTrace's physical-memory size to
// the external tests, so exhausting it takes a few references instead of
// tens of thousands.
var ReplayTraceWithPhysBytes = replayTrace
