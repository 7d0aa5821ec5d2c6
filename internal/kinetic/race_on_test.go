//go:build race

package kinetic

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is handed, so byte budgets that count on a pooled frame
// coming back are not checked.
const raceEnabled = true
