//go:build race

package shard

// raceEnabled reports that this binary was built with -race. The
// allocation-budget tests skip themselves then: the race runtime
// instruments every memory access and allocates shadow state of its
// own, so testing.AllocsPerRun's global-malloc delta no longer
// measures the code under test.
const raceEnabled = true
