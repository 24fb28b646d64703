// Package connection implements use case 1 of the paper (§4): a
// limited-use connection that physically bounds the number of reads of a
// smartphone's storage decryption key.
//
// The storage is encrypted with AES-256-GCM under a key derived from the
// user's passcode *and* a hardware key. The hardware key lives behind a
// core.Architecture of simulated NEMS switches: every unlock attempt —
// right or wrong — must traverse the wearout hardware to fetch it, so the
// attempt budget is enforced by physics rather than by a software counter
// that NAND mirroring or power-cut tricks can reset (the iPhone attacks
// catalogued in §4). When the hardware wears out the device locks forever.
//
// PlanMWay sizes the M-way module replication of §4.1.5: M architectures
// used serially, each with its own passcode, to multiply the lifetime
// usage budget by M.
package connection

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

var (
	// ErrLocked is returned when the wearout hardware is exhausted: the
	// storage is cryptographically unrecoverable.
	ErrLocked = errors.New("connection: device locked forever (hardware worn out)")
	// ErrWrongPasscode is returned when the passcode fails to decrypt the
	// storage. The attempt still consumed one hardware access.
	ErrWrongPasscode = errors.New("connection: wrong passcode")
	// ErrTransient is returned when the hardware access itself failed;
	// retrying may succeed on the next module copy.
	ErrTransient = errors.New("connection: transient hardware failure; retry")
)

const hwKeyLen = 32

// Device is a simulated smartphone with a limited-use unlock path.
type Device struct {
	arch       *core.Architecture
	ciphertext []byte // nonce || AES-GCM(storage)
}

// NewDevice fabricates a device: a fresh hardware key is generated, placed
// behind wearout hardware built per design, and the storage plaintext is
// sealed under KDF(passcode, hardware key).
func NewDevice(design dse.Design, passcode string, storage []byte, r *rng.RNG) (*Device, error) {
	hwKey := make([]byte, hwKeyLen)
	r.Bytes(hwKey)
	arch, err := core.Build(design, hwKey, r)
	if err != nil {
		return nil, fmt.Errorf("connection: building wearout hardware: %w", err)
	}
	ct, err := seal(passcode, hwKey, storage, r)
	if err != nil {
		return nil, err
	}
	return &Device{arch: arch, ciphertext: ct}, nil
}

// Unlock attempts to decrypt the storage with the given passcode. Every
// call consumes one access of the wearout hardware.
func (d *Device) Unlock(passcode string, env nems.Environment) ([]byte, error) {
	hwKey, err := d.arch.Access(env)
	switch {
	case errors.Is(err, core.ErrExhausted):
		return nil, ErrLocked
	case errors.Is(err, core.ErrTransient):
		return nil, ErrTransient
	case err != nil:
		return nil, err
	}
	plain, err := open(passcode, hwKey, d.ciphertext)
	if err != nil {
		return nil, ErrWrongPasscode
	}
	return plain, nil
}

// Locked reports whether the device can never be unlocked again.
func (d *Device) Locked() bool { return !d.arch.Alive() }

// Attempts returns how many unlock attempts (hardware accesses) were made.
func (d *Device) Attempts() uint64 {
	total, _ := d.arch.Accesses()
	return total
}

// HardwareDevices returns the NEMS switch count of the unlock path.
func (d *Device) HardwareDevices() int { return d.arch.TotalDevices() }

// kdf derives the storage key from passcode and hardware key.
func kdf(passcode string, hwKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte("lemonade-connection-v1"))
	h.Write([]byte{byte(len(passcode))})
	h.Write([]byte(passcode))
	h.Write(hwKey)
	return h.Sum(nil)
}

func seal(passcode string, hwKey, plain []byte, r *rng.RNG) ([]byte, error) {
	block, err := aes.NewCipher(kdf(passcode, hwKey))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	r.Bytes(nonce)
	return gcm.Seal(nonce, nonce, plain, nil), nil
}

func open(passcode string, hwKey, ct []byte) ([]byte, error) {
	block, err := aes.NewCipher(kdf(passcode, hwKey))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(ct) < gcm.NonceSize() {
		return nil, errors.New("connection: ciphertext too short")
	}
	return gcm.Open(nil, ct[:gcm.NonceSize()], ct[gcm.NonceSize():], nil)
}
