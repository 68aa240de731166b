package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeF64 serializes a float64 slice to little-endian bytes.
func EncodeF64(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeF64 deserializes little-endian bytes produced by EncodeF64.
func DecodeF64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}
