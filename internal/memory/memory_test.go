package memory

import (
	"bytes"
	"errors"
	"testing"
)

func TestShiftRegisterReadOut(t *testing.T) {
	data := []byte{0xDE, 0xAD}
	sr, err := NewShiftRegister(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	out, lat, err := sr.ReadOut()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Errorf("ReadOut = %x", out)
	}
	if lat != 16*ShiftRegisterNsPerBit {
		t.Errorf("latency = %g ns, want %g", lat, 16*ShiftRegisterNsPerBit)
	}
	if _, _, err := sr.ReadOut(); !errors.Is(err, ErrDestroyed) {
		t.Error("second ReadOut should fail")
	}
}

func TestShiftRegisterValidation(t *testing.T) {
	if _, err := NewShiftRegister([]byte{1}, 9); err == nil {
		t.Error("nbits > 8*len should error")
	}
	if _, err := NewShiftRegister([]byte{1}, -1); err == nil {
		t.Error("negative nbits should error")
	}
	sr, err := NewShiftRegister(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, lat, err := sr.ReadOut(); err != nil || lat != 0 {
		t.Error("empty register should read out instantly")
	}
}

func TestShiftRegisterPaperLatency(t *testing.T) {
	// §6.5.2: reading a 1000H-bit string at H=4 takes 20ns*4000 = 0.08 ms.
	sr, _ := NewShiftRegister(make([]byte, 500), 4000)
	_, lat, err := sr.ReadOut()
	if err != nil {
		t.Fatal(err)
	}
	if ms := lat / 1e6; ms != 0.08 {
		t.Errorf("4000-bit readout = %g ms, paper says 0.08 ms", ms)
	}
}
