//go:build !race

package kclient

const raceEnabled = false
