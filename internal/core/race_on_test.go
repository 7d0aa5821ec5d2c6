//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is handed, so byte budgets that count on a pooled buffer
// coming back are not checked.
const raceEnabled = true
