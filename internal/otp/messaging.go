package otp

import (
	"errors"
	"fmt"

	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// This file implements the end-to-end messaging protocol of §6.1: the
// sender fabricates a chip of pads, keeps a private codebook of (path,
// key) pairs, and delivers the chip to the receiver ahead of time. For
// each message the sender transmits the ciphertext plus the short path
// string over cheap channels; the receiver burns one pad to recover the
// key. Encryption is the information-theoretic one-time pad (XOR).

// ErrPadExhausted is returned when the codebook has no pads left.
var ErrPadExhausted = errors.New("otp: no pads left on the chip")

// ErrKeyTooShort is returned when a message exceeds the pad key length.
var ErrKeyTooShort = errors.New("otp: message longer than the one-time key")

// Chip is the receiver's hardware: a sequence of pads.
type Chip struct {
	pads []*Pad
}

// Codebook is the sender's private state: per-pad path strings and keys.
type Codebook struct {
	paths []int
	keys  [][]byte
	next  int
}

// FabricateChip builds `count` pads with fresh random keys and paths,
// returning the receiver's chip and the sender's codebook.
func FabricateChip(p Params, count int, r *rng.RNG) (*Chip, *Codebook, error) {
	if count < 1 {
		return nil, nil, fmt.Errorf("otp: chip needs at least one pad, got %d", count)
	}
	chip := &Chip{}
	book := &Codebook{}
	for i := 0; i < count; i++ {
		path := r.Intn(p.Paths())
		pad, key, err := Fabricate(p, path, r)
		if err != nil {
			return nil, nil, fmt.Errorf("otp: fabricating pad %d: %w", i, err)
		}
		chip.pads = append(chip.pads, pad)
		book.paths = append(book.paths, path)
		book.keys = append(book.keys, key)
	}
	return chip, book, nil
}

// Message is one transmitted message: ciphertext over the radio, path
// string over a separate short-lived channel.
type Message struct {
	PadIndex   int
	Path       int // the short string of Fig 6
	Ciphertext []byte
}

// Encrypt seals a plaintext with the next unused pad key.
func (b *Codebook) Encrypt(plain []byte) (Message, error) {
	if b.next >= len(b.keys) {
		return Message{}, ErrPadExhausted
	}
	key := b.keys[b.next]
	if len(plain) > len(key) {
		return Message{}, fmt.Errorf("%w: %d > %d bytes", ErrKeyTooShort, len(plain), len(key))
	}
	ct := make([]byte, len(plain))
	for i := range plain {
		ct[i] = plain[i] ^ key[i]
	}
	msg := Message{PadIndex: b.next, Path: b.paths[b.next], Ciphertext: ct}
	// OTP rule: the sender destroys their key copy immediately after use.
	for i := range key {
		key[i] = 0
	}
	b.next++
	return msg, nil
}

// Decrypt recovers a message by burning the chip's pad. Each pad works for
// one retrieval with the designed probability and is destroyed by use.
func (c *Chip) Decrypt(msg Message, env nems.Environment) ([]byte, error) {
	if msg.PadIndex < 0 || msg.PadIndex >= len(c.pads) {
		return nil, fmt.Errorf("otp: pad index %d out of range", msg.PadIndex)
	}
	key, _, err := c.pads[msg.PadIndex].Retrieve(msg.Path, env)
	if err != nil {
		return nil, err
	}
	if len(msg.Ciphertext) > len(key) {
		return nil, ErrKeyTooShort
	}
	plain := make([]byte, len(msg.Ciphertext))
	for i := range plain {
		plain[i] = msg.Ciphertext[i] ^ key[i]
	}
	return plain, nil
}

// Pad returns the i-th pad (for attack simulations).
func (c *Chip) Pad(i int) *Pad { return c.pads[i] }

// Pads returns the number of pads on the chip.
func (c *Chip) Pads() int { return len(c.pads) }
