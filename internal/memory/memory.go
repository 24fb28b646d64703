// Package memory simulates the parallel-in/serial-out shift registers at
// the leaves of the one-time-pad decision trees (§6.2): each holds one
// random key and destroys it on read-out. The paper is explicit that
// read-destructive memory alone is insufficient, since a low-voltage read
// or a clone bypasses the destruction; the security comes from the NEMS
// structures in front of the register, not the register itself.
package memory

import (
	"errors"
	"fmt"
)

// ShiftRegisterNsPerBit is the read latency of a parallel-in/serial-out
// shift register per bit (§6.5.2 cites ~20 ns, like an MM74HC165).
const ShiftRegisterNsPerBit = 20.0

// RegisterCellAreaNm2 is the area of one register cell in nm² (§6.5.1
// assumes a 50 nm² cell).
const RegisterCellAreaNm2 = 50.0

// ErrDestroyed is returned when reading a register whose contents have
// been destroyed.
var ErrDestroyed = errors.New("memory: contents destroyed")

// ShiftRegister is a parallel-in/serial-out register holding one random key
// at a decision-tree leaf. Reading shifts the bits out serially (costing
// ShiftRegisterNsPerBit per bit) and destroys the contents.
type ShiftRegister struct {
	bits      []byte // packed, MSB first within each byte
	nbits     int
	destroyed bool
}

// NewShiftRegister loads nbits bits from data (packed, MSB-first).
func NewShiftRegister(data []byte, nbits int) (*ShiftRegister, error) {
	if nbits < 0 || nbits > len(data)*8 {
		return nil, fmt.Errorf("memory: nbits %d out of range for %d data bytes", nbits, len(data))
	}
	d := make([]byte, len(data))
	copy(d, data)
	return &ShiftRegister{bits: d, nbits: nbits}, nil
}

// ReadOut shifts out the whole register, destroying the contents. It
// returns the packed bits and the read latency in nanoseconds.
func (s *ShiftRegister) ReadOut() (data []byte, latencyNs float64, err error) {
	if s.destroyed {
		return nil, 0, ErrDestroyed
	}
	out := s.bits
	s.bits = nil
	s.destroyed = true
	return out, float64(s.nbits) * ShiftRegisterNsPerBit, nil
}
