//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops a share of what it is handed, so allocation budgets that
// rest on pooling do not hold.
const raceEnabled = true
