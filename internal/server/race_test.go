//go:build race

package server_test

// raceEnabled reports a -race build, whose detector allocates on its own.
const raceEnabled = true
