package cracker

import (
	"math"
	"unsafe"
)

// The vector twins of partition2Vals and partition2Off32: partitionVec
// and partitionVec32 (partition_amd64.s) partition eight values or sixteen
// offsets a step with AVX-512F, and partition2Vector and
// partition2OffVector finish the last (< 8 or < 16) with the scalar
// one-cursor loop.

// partitionVec partitions v[0:n] in place around pivot, n a multiple of 8
// and at least 16, returning the count of values < pivot (they end first)
// and their wrapping sum. Implemented in partition_amd64.s.
//
//go:noescape
func partitionVec(v *int64, n int, pivot int64) (lows int, sumLow int64)

// partitionVec32 partitions offsets v[0:n] in place around pivot, n a
// multiple of 16 and at least 32, returning the count of offsets < pivot
// (they end first) and their sum. Implemented in partition_amd64.s.
//
//go:noescape
func partitionVec32(v *uint32, n int, pivot uint32) (lows int, sumLow uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// raceVector, when set (partition_race_amd64.go, -race builds), tells the
// race detector the bytes from p that partitionVec or partitionVec32 reads
// and writes: accesses made from assembly are invisible to it.
var raceVector func(p unsafe.Pointer, bytes int)

// vectorSupported reports whether this CPU runs partitionVec: AVX-512F
// (VPCMPQ, VPCOMPRESSQ, masked moves), AVX2 (the final reduction), BMI2
// (SHRX) and POPCNT, with the operating system saving the opmask and ZMM
// state (XCR0 bits 5-7 beside SSE and AVX, bits 1-2).
func vectorSupported() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	const xmmYmm, opmaskZmm = 0x6, 0xe0
	if xgetbv()&(xmmYmm|opmaskZmm) != xmmYmm|opmaskZmm {
		return false
	}
	const avx2, bmi2, avx512f = 1 << 5, 1 << 8, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx2|bmi2|avx512f) == avx2|bmi2|avx512f
}

// partition2Vector is partition2Vals with the vector kernel: the same
// split position and low sum, a different order within each side. The
// largest multiple of 8 values (when at least 16) goes through partitionVec,
// which leaves v[0:left] low and v[left:n] high; the scalar loop then picks
// up at right = n with that invariant, exactly where partition2Vals would
// stand after n values.
func partition2Vector(vals []int64, a, b int, pivot int64) (m int, sumLow int64) {
	if a < 0 || a >= b || b > len(vals) {
		return a, 0
	}
	v := vals[a:b]
	n := len(v) &^ 7
	left := 0
	if n >= 16 {
		if raceVector != nil {
			raceVector(unsafe.Pointer(&v[0]), n*8)
		}
		left, sumLow = partitionVec(&v[0], n, pivot)
	} else {
		n = 0
	}
	for right := n; right < len(v); right++ {
		if uint(left) > uint(right) {
			break // unreachable: left <= n <= right and left advances at most once per step; BCE only
		}
		rv := v[right]
		v[right] = v[left]
		v[left] = rv
		lt := b2i(rv < pivot)
		left += lt
		sumLow += rv & -int64(lt)
	}
	return a + left, sumLow
}

// partition2OffVector is partition2Off32 with the vector kernel, as
// partition2Vector is partition2Vals with it: the largest multiple of 16
// offsets (when at least 32) goes through partitionVec32. A pivot past
// every offset (2^32, which no uint32 lane holds) leaves the piece as it
// is, all of it low.
func partition2OffVector(off []uint32, a, b int, pivot uint64) (m int, sumLow uint64) {
	if a < 0 || a >= b || b > len(off) {
		return a, 0
	}
	v := off[a:b]
	if pivot > math.MaxUint32 {
		return b, uint64(sumVals(v))
	}
	n := len(v) &^ 15
	left := 0
	if n >= 32 {
		if raceVector != nil {
			raceVector(unsafe.Pointer(&v[0]), n*4)
		}
		left, sumLow = partitionVec32(&v[0], n, uint32(pivot))
	} else {
		n = 0
	}
	for right := n; right < len(v); right++ {
		if uint(left) > uint(right) {
			break // unreachable: left <= n <= right and left advances at most once per step; BCE only
		}
		rv := v[right]
		v[right] = v[left]
		v[left] = rv
		lt := b2i(uint64(rv) < pivot)
		left += lt
		sumLow += uint64(rv) & -uint64(lt)
	}
	return a + left, sumLow
}
