package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode is a differential fuzz of the frame decoder: for arbitrary
// (possibly corrupted) input it must never panic, never fabricate a record
// that was not written, and always identify a valid prefix such that
// truncating there and re-encoding the decoded records reproduces the
// prefix byte-for-byte (truncate-and-recover is lossless and idempotent).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrame(nil, []byte("hello")))
	f.Add(EncodeFrame(EncodeFrame(nil, []byte("a")), []byte("bb")))
	// A frame with a torn tail.
	f.Add(EncodeFrame(nil, []byte("whole"))[:7])
	// A length far larger than the buffer.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	// A frame followed by the zeros of a pre-extended file.
	f.Add(append(EncodeFrame(nil, []byte("tail")), make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		payloads, valid := DecodeAll(body)
		if valid < 0 || valid > int64(len(body)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(body))
		}
		// Re-encoding the decoded records must reproduce the valid prefix
		// exactly: no record can exist that the bytes do not spell out.
		var re []byte
		for _, p := range payloads {
			re = EncodeFrame(re, p)
		}
		if !bytes.Equal(re, body[:valid]) {
			t.Fatalf("re-encoded records do not match the valid prefix")
		}
		// Decoding the truncated prefix is a fixpoint: same records, fully
		// valid.
		payloads2, valid2 := DecodeAll(body[:valid])
		if valid2 != valid || len(payloads2) != len(payloads) {
			t.Fatalf("truncate-and-recover not idempotent: %d/%d records, %d/%d bytes",
				len(payloads2), len(payloads), valid2, valid)
		}
		// The byte after the valid prefix (if any) must start a bad frame —
		// otherwise we truncated a record that was actually intact.
		if int64(len(body)) > valid {
			rest, _ := DecodeAll(body[valid:])
			if len(rest) > 0 && valid2 == valid {
				// A decodable frame right after the cut means the cut was
				// wrong only if decoding from the cut yields bytes we
				// skipped; DecodeAll stops at the FIRST bad frame, so a
				// valid frame at the cut contradicts the scan.
				t.Fatalf("valid frame found immediately after the recovery cut")
			}
		}
	})
}
