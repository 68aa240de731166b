package mpi

import (
	"bytes"
	"testing"
)

// FuzzDecodeF64 hardens the float codec against arbitrary byte lengths:
// DecodeF64Into fills a destination of len(b)/8 values exactly when the
// length is a multiple of 8, and rejects a destination one value short.
func FuzzDecodeF64(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeF64([]float64{1, 2, 3}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		v := make([]float64, len(b)/8)
		err := DecodeF64Into(v, b)
		if (err == nil) != (len(b)%8 == 0) {
			t.Fatalf("decode of %d bytes: err = %v", len(b), err)
		}
		if err == nil {
			// Round trip.
			if got := EncodeF64(v); !bytes.Equal(got, b) {
				t.Fatalf("re-encode of %d bytes differs", len(b))
			}
			if len(v) > 0 && DecodeF64Into(v[1:], b) == nil {
				t.Fatalf("decoded %d bytes into %d values", len(b), len(v)-1)
			}
		}
	})
}
