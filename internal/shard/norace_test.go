//go:build !race

package shard

const raceEnabled = false
