//go:build race

package cracker

import (
	"runtime"
	"unsafe"
)

// Under -race, partition2Vector reports the piece partitionVec is about to
// read and write, as the scalar kernel's instrumented loads and stores would:
// a crack that partitions without holding its piece's stripe then races
// readers of that piece in the detector's eyes, whichever kernel runs.
func init() {
	raceVector = func(v []int64) {
		p := unsafe.Pointer(unsafe.SliceData(v))
		runtime.RaceReadRange(p, len(v)*8)
		runtime.RaceWriteRange(p, len(v)*8)
	}
}
