package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeF64 serializes a float64 slice to little-endian bytes. Its one
// allocation is the message: the result is meant to be sent, after which
// the sender must not write it again.
func EncodeF64(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeF64Into deserializes little-endian bytes produced by EncodeF64
// into dst, which must hold exactly len(b)/8 values. It does not allocate.
func DecodeF64Into(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("mpi: float64 payload of %d bytes does not fill %d values", len(b), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
