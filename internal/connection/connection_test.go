package connection

import (
	"bytes"
	"errors"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func testDesign(t *testing.T, lab int) dse.Design {
	t.Helper()
	d, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(12, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         lab,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestUnlockRightPasscode(t *testing.T) {
	design := testDesign(t, 40)
	r := rng.New(1)
	storage := []byte("user photos, messages, and app data")
	dev, err := NewDevice(design, "hunter2!", storage, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.Unlock("hunter2!", nems.RoomTemp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, storage) {
		t.Errorf("unlocked storage = %q", got)
	}
}

func TestWrongPasscodeFailsButConsumesAccess(t *testing.T) {
	design := testDesign(t, 40)
	r := rng.New(2)
	dev, err := NewDevice(design, "correct", []byte("data"), r)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Attempts()
	if _, err := dev.Unlock("wrong!", nems.RoomTemp); !errors.Is(err, ErrWrongPasscode) {
		t.Errorf("expected ErrWrongPasscode, got %v", err)
	}
	if dev.Attempts() != before+1 {
		t.Error("wrong passcode must still consume a hardware access")
	}
	// and the right passcode still works afterwards
	if _, err := dev.Unlock("correct", nems.RoomTemp); err != nil {
		t.Errorf("right passcode failed after a wrong attempt: %v", err)
	}
}

func TestDeviceLocksForever(t *testing.T) {
	design := testDesign(t, 30)
	r := rng.New(3)
	dev, err := NewDevice(design, "pass", []byte("data"), r)
	if err != nil {
		t.Fatal(err)
	}
	budget := design.MaxAllowedAccesses()*3 + 100
	locked := false
	for i := 0; i < budget; i++ {
		_, err := dev.Unlock("pass", nems.RoomTemp)
		if errors.Is(err, ErrLocked) {
			locked = true
			break
		}
	}
	if !locked {
		t.Fatal("device never locked")
	}
	if !dev.Locked() {
		t.Error("Locked() disagrees")
	}
	// locked means locked — even for the right passcode
	if _, err := dev.Unlock("pass", nems.RoomTemp); !errors.Is(err, ErrLocked) {
		t.Error("locked device served an unlock")
	}
}

func TestGuaranteedUnlocksWithinBound(t *testing.T) {
	design := testDesign(t, 50)
	r := rng.New(4)
	dev, err := NewDevice(design, "pass", []byte("data"), r)
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	for i := 0; i < 50; i++ {
		if _, err := dev.Unlock("pass", nems.RoomTemp); err == nil {
			succ++
		}
	}
	if succ < 45 {
		t.Errorf("only %d/50 unlocks succeeded within the design bound", succ)
	}
}

func TestPowerCutTrickDoesNotHelp(t *testing.T) {
	// The MDSec attack cut power to reset a software counter. Here there is
	// no software counter: the state is device wearout itself, so a fresh
	// Device *handle* over the same worn hardware is impossible to
	// construct — we verify that attempts is not the security boundary by
	// wearing out the hardware with wrong guesses only.
	design := testDesign(t, 30)
	r := rng.New(5)
	dev, err := NewDevice(design, "real-pass", []byte("secrets"), r)
	if err != nil {
		t.Fatal(err)
	}
	budget := design.MaxAllowedAccesses()*3 + 100
	for i := 0; i < budget && !dev.Locked(); i++ {
		_, _ = dev.Unlock("guess", nems.RoomTemp)
	}
	if !dev.Locked() {
		t.Fatal("brute force never exhausted the hardware")
	}
	// after lockout, even the *correct* passcode cannot recover the data:
	// confidentiality holds although availability is gone (§7).
	if _, err := dev.Unlock("real-pass", nems.RoomTemp); !errors.Is(err, ErrLocked) {
		t.Error("worn hardware still served the key")
	}
}
