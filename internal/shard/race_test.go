//go:build race

package shard

// raceEnabled reports a -race build, whose detector allocates beside the
// code under test.
const raceEnabled = true
