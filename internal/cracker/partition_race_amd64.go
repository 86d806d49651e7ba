//go:build race

package cracker

import (
	"runtime"
	"unsafe"
)

// Under -race, partition2Vector and partition2OffVector report the piece
// partitionVec or partitionVec32 is about to read and write, as the scalar
// kernels' instrumented loads and stores would: a crack that partitions
// without holding its piece's stripe then races readers of that piece in
// the detector's eyes, whichever kernel runs.
func init() {
	raceVector = func(p unsafe.Pointer, bytes int) {
		runtime.RaceReadRange(p, bytes)
		runtime.RaceWriteRange(p, bytes)
	}
}
