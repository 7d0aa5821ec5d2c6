//go:build !race

package kinetic

const raceEnabled = false
