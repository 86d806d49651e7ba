//go:build !amd64

package cracker

// vectorSupported reports false: the vector kernel (partition_amd64.s) is
// amd64 assembly, so every other GOARCH runs partition2Vals.
func vectorSupported() bool { return false }

// partition2Vector is never reached off amd64 (vectorPartition is false);
// it is the scalar kernel so that the dispatch compiles everywhere.
func partition2Vector(vals []int64, a, b int, pivot int64) (m int, sumLow int64) {
	return partition2Vals(vals, a, b, pivot)
}
