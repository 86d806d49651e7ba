//go:build !amd64

package cracker

// vectorSupported reports false: the vector kernels (partition_amd64.s) are
// amd64 assembly, so every other GOARCH runs partition2Vals and
// partition2Off32.
func vectorSupported() bool { return false }

// partition2Vector and partition2OffVector are never reached off amd64
// (vectorPartition is false); they are the scalar kernels so that the
// dispatch compiles everywhere.
func partition2Vector(vals []int64, a, b int, pivot int64) (m int, sumLow int64) {
	return partition2Vals(vals, a, b, pivot)
}

func partition2OffVector(off []uint32, a, b int, pivot uint64) (m int, sumLow uint64) {
	return partition2Off32(off, a, b, pivot)
}
