package main

import (
	"strings"
	"testing"
	"time"
)

// Out-of-range bench sizes must come back as an error naming the flags —
// before any connection is dialled, and never as a divide-by-zero or a
// negative make.
func TestBenchRejectsNonPositiveSizes(t *testing.T) {
	// Nothing listens here; a case that passes validation fails at the dial.
	dial := dialer{addr: "127.0.0.1:1"}
	for _, tc := range []struct {
		args     []string
		rejected bool
	}{
		{args: []string{"-clients", "0"}, rejected: true},
		{args: []string{"-clients", "-3"}, rejected: true},
		{args: []string{"-requests", "0"}, rejected: true},
		{args: []string{"-requests", "-1"}, rejected: true},
		{args: []string{"-clients", "0", "-requests", "0"}, rejected: true},
		{args: []string{"-clients", "1", "-requests", "1"}},
		{args: []string{"-clients", "8", "-requests", "3"}},
	} {
		err := cmdBench(dial, tc.args)
		if err == nil {
			t.Errorf("bench %v: no error", tc.args)
			continue
		}
		if got := strings.Contains(err.Error(), "-clients and -requests"); got != tc.rejected {
			t.Errorf("bench %v: error %q, rejected=%v want %v", tc.args, err, got, tc.rejected)
		}
	}
}

func TestLatencyProfile(t *testing.T) {
	if p50, p95, p99, max := latencyProfile(nil); p50|p95|p99|max != 0 {
		t.Fatalf("empty profile: %v %v %v %v, want zeros", p50, p95, p99, max)
	}
	// 1..100 shuffled by stride: nearest-rank over index p*(n-1).
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration((i*37)%100 + 1)
	}
	p50, p95, p99, max := latencyProfile(lats)
	if p50 != 50 || p95 != 95 || p99 != 99 || max != 100 {
		t.Fatalf("profile of 1..100: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, max)
	}
}
